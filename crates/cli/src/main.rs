//! `numagap` binary — thin wrapper over [`numagap_cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    match numagap_cli::parse(&arg_refs) {
        Ok(cmd) => std::process::exit(numagap_cli::execute(cmd)),
        Err(e) => {
            // Under the error, the section of the command that was named;
            // the whole usage text when none was.
            let section = arg_refs.first().and_then(|cmd| numagap_cli::section(cmd));
            eprintln!("error: {e}\n");
            eprintln!("{}", section.unwrap_or_else(numagap_cli::usage));
            std::process::exit(numagap_cli::EXIT_ERROR);
        }
    }
}
