//! Development harness for the serving front-end: deterministic
//! untrained models (see `ngl_serve::devstack`) over a durable store,
//! served until the process is killed. The kill-under-load integration
//! suite drives this binary from outside — SIGKILL mid-load, restart on
//! the same store directory, compare recovered state — so everything
//! here must be reproducible across processes: no entropy, no wall
//! clock, models fully determined by seeds.
//!
//! Usage:
//!   serve_harness --store-dir DIR [--addr HOST:PORT] [--max-batch N]
//!                 [--max-delay-ms N] [--queue-cap N] [--finalize-every N]
//!                 [--ack-timeout-ms N] [--checkpoint-every N]
//!
//! Prints `LISTENING <addr>` on stdout once the socket is bound.

use std::collections::HashMap;

use ner_globalizer::core::{DurableGlobalizer, GlobalizerConfig, PoolPolicy};
use ner_globalizer::serve::{devstack, ServeConfig, Server};

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg}"));
        };
        let Some(value) = args.get(i + 1) else {
            return Err(format!("flag --{name} needs a value"));
        };
        flags.insert(name.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad value for --{name}: {raw}")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args)?;
    let store_dir = flags.get("store-dir").ok_or("missing --store-dir")?.clone();

    let cfg = GlobalizerConfig { pool: PoolPolicy::Shared, ..Default::default() };
    let checkpoint_every: usize = num(&flags, "checkpoint-every", 4)?;

    let serve_cfg = ServeConfig {
        addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:0".to_string()),
        max_batch: num(&flags, "max-batch", 64)?,
        max_delay_ms: num(&flags, "max-delay-ms", 5)?,
        queue_cap: num(&flags, "queue-cap", 1024)?,
        finalize_every: num(&flags, "finalize-every", 1)?,
        ack_timeout_ms: num(&flags, "ack-timeout-ms", 10_000)?,
    };

    let pipeline = devstack::pipeline(cfg);
    let (durable, recovery) = DurableGlobalizer::open(pipeline, &store_dir, checkpoint_every)
        .map_err(|e| format!("open {store_dir}: {e}"))?;
    eprintln!(
        "recovered: {} batches, {} finalizes, {} tweets, digest {}",
        recovery.replayed_batches, recovery.replayed_finalizes, recovery.tweets, recovery.digest
    );
    let server = Server::start(durable, recovery, serve_cfg).map_err(|e| e.to_string())?;
    // The test harness scrapes this exact line for the bound port.
    println!("LISTENING {}", server.addr());
    use std::io::Write;
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    // Serve until killed. The kill-under-load suite SIGKILLs this
    // process mid-load, so there is deliberately no graceful path here.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_harness: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
