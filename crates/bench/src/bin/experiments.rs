//! Experiment runner: prints the paper-claim tables (`pv_bench::all_tables`)
//! as markdown.
//!
//! Usage:
//!   cargo run --release -p pv-bench --bin experiments            # all tables
//!   cargo run --release -p pv-bench --bin experiments -- --table scaling-n

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requested: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--table" | "-t" => {
                i += 1;
                match args.get(i) {
                    Some(t) => requested.push(t.as_str()),
                    None => {
                        eprintln!("--table requires a name; known: {:?}", pv_bench::all_tables());
                        std::process::exit(2);
                    }
                }
            }
            "--list" => {
                for t in pv_bench::all_tables() {
                    println!("{t}");
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--table NAME]...  (default: all)\nknown tables: {:?}",
                    pv_bench::all_tables()
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("# Potential-validity experiment tables\n");
    if requested.is_empty() {
        for t in pv_bench::all_tables() {
            pv_bench::run_table(t);
        }
    } else {
        for t in requested {
            pv_bench::run_table(t);
        }
    }
}
