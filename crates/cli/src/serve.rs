//! The `serve` command: the what-if prediction server.

use numagap_bench::engine;

use crate::flags::Values;
use crate::EXIT_ERROR;

/// Executes the `serve` command: binds the what-if prediction server and
/// blocks until a client POSTs `/v1/shutdown` (see [`numagap_serve`]).
pub(crate) fn execute_serve(args: &Values) -> i32 {
    let opts = numagap_serve::ServeOpts {
        port: args.port,
        workers: args.workers.unwrap_or_else(engine::default_jobs),
        cache_capacity: args.cache_capacity,
        deadline_ms: args.deadline_ms,
    };
    let mut server = match numagap_serve::Server::start(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind 127.0.0.1:{}: {e}", args.port);
            return EXIT_ERROR;
        }
    };
    println!(
        "serve: listening on http://{} (workers {}, cache {} entries, deadline {} ms)",
        server.addr(),
        opts.workers,
        opts.cache_capacity,
        opts.deadline_ms
    );
    println!("serve: endpoints GET /v1/health, GET /v1/stats, POST /v1/whatif, POST /v1/shutdown");
    server.wait();
    println!("serve: shut down");
    0
}
