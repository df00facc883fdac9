//! The `serve` command: the what-if prediction server.

use numagap_bench::engine;

use crate::EXIT_ERROR;

/// Flags of the `serve` command.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCmdArgs {
    /// TCP port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Connection/compute worker threads (available parallelism when
    /// unset).
    pub workers: Option<usize>,
    /// DAG cache capacity, entries.
    pub cache_capacity: usize,
    /// Per-request wall-clock budget, milliseconds.
    pub deadline_ms: u64,
}

/// Executes the `serve` command: binds the what-if prediction server and
/// blocks until a client POSTs `/v1/shutdown` (see [`numagap_serve`]).
pub fn execute_serve(args: &ServeCmdArgs) -> i32 {
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
