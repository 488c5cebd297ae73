//! Character-reference escaping and resolution shared by the parser and
//! serializer.

use crate::error::{XmlError, XmlErrorKind};
use crate::Result;

/// Escapes `<`, `>`, `&` in character data for serialization.
pub fn escape_text(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            c => out.push(c),
        }
    }
}

/// Escapes text for a double-quoted attribute value.
pub fn escape_attr(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}

/// Resolves a reference body (the part between `&` and `;`): the five
/// predefined entities plus decimal/hex character references.
///
/// `offset` is the byte position of the `&`, used for error reporting.
pub fn resolve_reference(body: &str, offset: usize) -> Result<char> {
    match body {
        "amp" => return Ok('&'),
        "lt" => return Ok('<'),
        "gt" => return Ok('>'),
        "quot" => return Ok('"'),
        "apos" => return Ok('\''),
        _ => {}
    }
    let invalid = || XmlError::new(XmlErrorKind::InvalidReference(body.to_owned()), offset);
    if let Some(rest) = body.strip_prefix('#') {
        let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X')) {
            u32::from_str_radix(hex, 16).map_err(|_| invalid())?
        } else {
            rest.parse::<u32>().map_err(|_| invalid())?
        };
        char::from_u32(code).ok_or_else(invalid)
    } else {
        Err(invalid())
    }
}

/// `true` if `c` may start an XML name (simplified NameStartChar: letters,
/// `_`, `:` and non-ASCII).
#[inline]
pub fn is_name_start(c: char) -> bool {
    !c.is_ascii() || is_name_start_byte(c as u8)
}

/// `true` if `c` may continue an XML name.
#[inline]
pub fn is_name_char(c: char) -> bool {
    !c.is_ascii() || is_name_byte(c as u8)
}

/// The byte form of [`is_name_start`]. Every byte of a non-ASCII
/// character is ≥ 0x80 and every non-ASCII character is a name
/// character, so on UTF-8 a byte scan ends exactly where a character scan
/// does.
#[inline]
pub(crate) fn is_name_start_byte(b: u8) -> bool {
    matches!(b, b'a'..=b'z' | b'A'..=b'Z' | b'_' | b':' | 0x80..=0xFF)
}

/// The byte form of [`is_name_char`] (see [`is_name_start_byte`]).
#[inline]
pub(crate) fn is_name_byte(b: u8) -> bool {
    is_name_start_byte(b) || matches!(b, b'0'..=b'9' | b'-' | b'.')
}

/// Checks that `name` is a syntactically plausible XML name.
pub fn validate_name(name: &str, offset: usize) -> Result<()> {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if is_name_start(c) => {}
        _ => return Err(XmlError::new(XmlErrorKind::InvalidName(name.to_owned()), offset)),
    }
    if chars.all(is_name_char) {
        Ok(())
    } else {
        Err(XmlError::new(XmlErrorKind::InvalidName(name.to_owned()), offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_handles_specials() {
        let mut out = String::new();
        escape_text("a<b>&c", &mut out);
        assert_eq!(out, "a&lt;b&gt;&amp;c");
    }

    #[test]
    fn escape_attr_handles_quotes() {
        let mut out = String::new();
        escape_attr(r#"say "hi" & <go>"#, &mut out);
        assert_eq!(out, "say &quot;hi&quot; &amp; &lt;go>");
    }

    #[test]
    fn predefined_entities_resolve() {
        for (b, c) in [("amp", '&'), ("lt", '<'), ("gt", '>'), ("quot", '"'), ("apos", '\'')] {
            assert_eq!(resolve_reference(b, 0).unwrap(), c);
        }
    }

    #[test]
    fn numeric_references_resolve() {
        assert_eq!(resolve_reference("#65", 0).unwrap(), 'A');
        assert_eq!(resolve_reference("#x41", 0).unwrap(), 'A');
        assert_eq!(resolve_reference("#x263A", 0).unwrap(), '☺');
    }

    #[test]
    fn unknown_entity_is_error() {
        assert!(resolve_reference("nbsp", 3).is_err());
        assert!(resolve_reference("#xZZ", 0).is_err());
        assert!(resolve_reference("#1114112", 0).is_err()); // > char::MAX
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("a", 0).is_ok());
        assert!(validate_name("a-b.c:d_9", 0).is_ok());
        assert!(validate_name("_x", 0).is_ok());
        assert!(validate_name("9a", 0).is_err());
        assert!(validate_name("", 0).is_err());
        assert!(validate_name("a b", 0).is_err());
    }
}
