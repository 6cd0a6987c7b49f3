//! `melissad` — the multi-tenant Melissa study daemon.
//!
//! Starts a daemon on the chosen transport backend and serves study
//! submissions until a client sends the `shutdown` RPC.
//!
//! ```text
//! melissad [--backend in-process|tcp] [--units N] [--max-active N] [--queue-cap N]
//! ```

use std::sync::Arc;

use melissa_daemon::{Daemon, DaemonConfig};
use melissa_transport::{make_transport, Transport, TransportKind};

fn usage() -> ! {
    eprintln!(
        "usage: melissad [--backend in-process|tcp] [--units N] \
         [--max-active N] [--queue-cap N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut backend = TransportKind::InProcess;
    let mut config = DaemonConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--backend" => {
                backend = match value("--backend").as_str() {
                    "in-process" => TransportKind::InProcess,
                    "tcp" => TransportKind::Tcp,
                    other => {
                        eprintln!("unknown backend '{other}'");
                        usage()
                    }
                }
            }
            "--units" => config.pool_units = value("--units").parse().unwrap_or_else(|_| usage()),
            "--max-active" => {
                config.max_active_studies =
                    value("--max-active").parse().unwrap_or_else(|_| usage())
            }
            "--queue-cap" => {
                config.queue_cap = value("--queue-cap").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }

    let transport: Arc<dyn Transport> = make_transport(backend);
    println!(
        "melissad: serving on '{}' (pool {} units, {} active studies, queue cap {})",
        transport.backend_name(),
        config.pool_units,
        config.max_active_studies,
        config.queue_cap
    );
    // Serve until a client's `shutdown` RPC makes the control loop exit.
    Daemon::start(transport, config).join();
    println!("melissad: control loop exited, bye");
}
