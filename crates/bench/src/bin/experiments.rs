//! Experiment runner: prints the paper-claim tables (`pv_bench::TABLES`)
//! as markdown, and with `--json DIR` writes their timed rows to
//! `DIR/BENCH_*.json`.
//!
//! Usage:
//!   cargo run --release -p pv-bench --bin experiments            # all tables
//!   cargo run --release -p pv-bench --bin experiments -- --table scaling-n
//!   cargo run --release -p pv-bench --bin experiments -- --json .  # re-capture every BENCH_*.json

use pv_bench::Command;

fn main() {
    match pv_bench::parse_args(std::env::args().skip(1)) {
        Ok(Command::Run { tables, json }) => {
            if let Err(e) = pv_bench::run_tables(&tables, json.as_deref()) {
                eprintln!("experiments: {e}");
                std::process::exit(1);
            }
        }
        Ok(Command::List) => pv_bench::TABLES.iter().for_each(|t| println!("{}", t.name)),
        Ok(Command::Help) => eprintln!("{}", pv_bench::USAGE),
        Err(msg) => {
            eprintln!("experiments: {msg}");
            std::process::exit(2);
        }
    }
}
