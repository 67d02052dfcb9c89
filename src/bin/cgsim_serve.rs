//! `cgsim-serve` — the simulation-as-a-service daemon.
//!
//! Boots the HTTP server over the simulation pool, prints the bound
//! address on stdout (so scripts can scrape the ephemeral port), then runs
//! until stdin closes or `SIGINT`-free environments send EOF — at which
//! point it drains gracefully and prints the final pool report as JSON.
//!
//! ```text
//! cgsim-serve [--addr HOST:PORT] [--http-workers N] [--pool-workers N]
//!             [--queue N] [--cache N] [--inflight N]
//!             [--rate BURST:PER_SEC] [--cost-limit POLLS]
//! ```
//!
//! `--cost-limit` refuses (`429 COST_EXCEEDED`) any run whose predicted
//! scheduler polls — the server's own static estimate for the graph and
//! workload it admits — exceed `POLLS`.
//!
//! Quickstart:
//!
//! ```text
//! cgsim-serve --addr 127.0.0.1:8080 &
//! curl -s localhost:8080/v1/run -d '{"graph":{"app":"bitonic"}}'
//! curl -s localhost:8080/metrics
//! ```

use cgsim::serve::{RateLimit, ServeConfig, Server};
use std::io::Read;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: cgsim-serve [--addr HOST:PORT] [--http-workers N] [--pool-workers N] \
         [--queue N] [--cache N] [--inflight N] [--rate BURST:PER_SEC] \
         [--cost-limit POLLS]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(what: &str, value: Option<String>) -> T {
    let Some(value) = value else { usage() };
    value.parse().unwrap_or_else(|_| {
        eprintln!("cgsim-serve: bad value for {what}: `{value}`");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().unwrap_or_else(|| usage()),
            "--http-workers" => config.http_workers = parse("--http-workers", args.next()),
            "--pool-workers" => config.pool_workers = parse("--pool-workers", args.next()),
            "--queue" => config.queue_capacity = parse("--queue", args.next()),
            "--cache" => config.cache_capacity = parse("--cache", args.next()),
            "--inflight" => config.max_inflight = parse("--inflight", args.next()),
            "--cost-limit" => config.cost_limit = Some(parse("--cost-limit", args.next())),
            "--rate" => {
                let spec: String = parse("--rate", args.next());
                let Some((burst, per_sec)) = spec.split_once(':') else {
                    usage()
                };
                let burst: f64 = burst.parse().unwrap_or_else(|_| usage());
                let per_sec: f64 = per_sec.parse().unwrap_or_else(|_| usage());
                config.rate = Some(RateLimit::new(burst, per_sec));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let handle = match Server::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cgsim-serve: cannot start: {e}");
            return ExitCode::from(2);
        }
    };
    println!("listening on http://{}", handle.addr());
    eprintln!("cgsim-serve: close stdin (ctrl-d) to drain and exit");

    // Block until stdin reaches EOF; the parent process (a test harness, a
    // shell with a pipe, an init system) controls our lifetime this way
    // without any signal handling.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);

    let report = handle.shutdown();
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
