//! `ivnt` — command-line front end for the trace-preprocessing pipeline.

mod args;
mod commands;
mod options;
mod output;

use args::Args;

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprint!("{}", commands::usage());
        std::process::exit(2);
    }
    let command = raw.remove(0);
    let parsed = match Args::parse_with_switches(raw, commands::SWITCHES) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = match command.as_str() {
        "inspect" => commands::inspect(&parsed),
        "run" => commands::run(&parsed),
        "query" => commands::query(&parsed),
        "store" => commands::store(&parsed),
        "stream" => commands::stream(&parsed),
        "cluster" => commands::cluster(&parsed),
        "dbc" => commands::dbc(&parsed),
        "infer" => commands::infer(&parsed),
        "help" | "--help" | "-h" => {
            print!("{}", commands::usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", commands::usage()).into()),
    };
    if let Err(e) = result {
        // A reader that closed the pipe early (`ivnt inspect … | head`)
        // took all the output it wanted: that is a clean exit.
        let broken_pipe = e
            .downcast_ref::<std::io::Error>()
            .is_some_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe);
        if !broken_pipe {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
