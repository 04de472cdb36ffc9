//! `sjsel` binary: thin wrapper over the [`sj_cli`] library.
//!
//! Warnings (validation repairs/drops, degraded estimates) go to stderr
//! so stdout stays pipeable; failures exit with the documented code from
//! [`sj_cli::exit_code`]. A closed stdout (e.g. piping into `head`) is a
//! silent success, not a panic.

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match sj_cli::run(&args) {
        Ok(output) => {
            for w in &output.warnings {
                eprintln!("warning: {w}");
            }
            if let Err(e) = writeln!(std::io::stdout(), "{output}") {
                if e.kind() == std::io::ErrorKind::BrokenPipe {
                    return;
                }
                eprintln!("error: failed to write output: {e}");
                std::process::exit(sj_cli::exit_code::IO);
            }
        }
        Err(e) => {
            eprintln!("error: {}", e.message);
            std::process::exit(e.code);
        }
    }
}
