//! `bcc-served`: the Laplacian-pipeline stream engine promoted to a
//! process. A thin shell over [`bcc_core::stream::StreamEngine`] behind a
//! Unix domain socket speaking `bcc-wire/v1` (see `docs/PROTOCOL.md` and
//! the `bcc-client` crate).
//!
//! ```text
//! bcc-served --socket PATH [--config FILE] [--tenants FILE]
//! ```
//!
//! * `--socket PATH` — where to listen. A stale socket file is replaced.
//! * `--config FILE` — a `bcc-engine-config/v2` JSON document, the same
//!   schema [`StreamEngineBuilder::from_config`] consumes in-process.
//!   Defaults to [`EngineConfig::default`].
//! * `--tenants FILE` — a `bcc-tenants/v1` directory. When given,
//!   enrollment is **closed**: a handshake naming an unknown tenant is
//!   rejected. Without it enrollment is **open**: tenants are
//!   auto-registered (weight 1, no rate limit, no quota) in handshake
//!   order, up to the 256 custom WFQ classes.
//!
//! Every connection authenticates one tenant and is served under that
//! tenant's weighted-fair-queueing class; Laplacian topologies are charged
//! against the tenant's cache quota *before* submission. The daemon is a
//! deterministic shell: it adds no scheduling of its own, so a sequence of
//! submissions through one connection yields a final
//! [`bcc_core::stream::StreamReport`] bit-identical to the same sequence
//! driven in-process with the same config.
//!
//! The daemon polls nothing: it accepts in blocking mode, each
//! connection's handler blocks in its read, and the daemon keeps a
//! duplicate of every live connection so that shutdown can wake them.
//! Writes are bounded instead: a write to a client that makes no progress
//! for [`WRITE_DEADLINE`] fails, and the daemon drops that connection.
//!
//! Shutdown is graceful: on [`ClientMsg::Shutdown`] the daemon stops
//! accepting connections and wakes every other open connection at once,
//! so a handler blocked between frames or inside a partly sent frame
//! answers `Fault {code: "shutting-down"}` and closes. The engine then
//! drains everything admitted, and the daemon answers the requester with
//! the final [`ServerMsg::Report`] and exits (the report is also printed
//! to stdout).

use std::collections::HashMap;
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bcc_client::wire::{
    decode_msg, read_frame, send_msg, ClientMsg, ServerMsg, WireFault, WireOutcome, WireResponse,
    WIRE_SCHEMA,
};
use bcc_core::config::{EngineConfig, Priority};
use bcc_core::stream::{StreamClient, StreamEngineBuilder, Ticket};
use bcc_core::telemetry::{TelemetrySink, TenantCounters};
use bcc_core::tenant::{TenantAccounts, TenantConfig, TenantDirectory};
use bcc_core::Request;

/// How long the accept loop waits after a failed `accept` (out of
/// descriptors, say) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long one write to a client may make no progress before it fails
/// and the daemon drops the connection. Shutdown wakes a handler blocked in
/// its read, but not one blocked writing a reply that its client never
/// reads (a Chrome trace larger than the socket buffer, say), and shutdown
/// joins every handler. The final `Report` goes out through the same
/// socket, so it is bounded too.
const WRITE_DEADLINE: Duration = Duration::from_secs(2);

struct Options {
    socket: PathBuf,
    config: Option<PathBuf>,
    tenants: Option<PathBuf>,
}

const USAGE: &str = "usage: bcc-served --socket PATH [--config FILE] [--tenants FILE]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut socket = None;
    let mut config = None;
    let mut tenants = None;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--config" => config = Some(PathBuf::from(value("--config")?)),
            "--tenants" => tenants = Some(PathBuf::from(value("--tenants")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(Options {
        socket: socket.ok_or_else(|| format!("--socket is required\n{USAGE}"))?,
        config,
        tenants,
    })
}

/// State shared by every connection handler.
struct Daemon {
    /// The engine's effective config, echoed in every handshake.
    config: EngineConfig,
    /// Tenant directory; open enrollment appends to it at handshake time.
    directory: Mutex<TenantDirectory>,
    /// Whether unknown tenants are auto-registered.
    open_enrollment: bool,
    /// Per-tenant cache-quota accounting.
    accounts: TenantAccounts,
    /// Retained handle on the engine's telemetry (shared registry/tracer).
    sink: TelemetrySink,
    /// Set by the first `Shutdown` message; checked around every blocking
    /// read and accept.
    shutdown: AtomicBool,
    /// The connection that asked for shutdown — it gets the final report.
    finisher: Mutex<Option<UnixStream>>,
    /// A duplicate of every live connection, by connection number, so that
    /// shutdown can wake the handler blocked in its read.
    connections: Mutex<HashMap<u64, UnixStream>>,
    /// A duplicate of the listener: shutting it down wakes the blocked
    /// `accept`.
    listener_waker: UnixStream,
    /// The listener's path, for the fallback wake-up.
    socket: PathBuf,
}

impl Daemon {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Starts the shutdown that connection `requester` asked for: its
    /// registered duplicate becomes the finisher, and every other handler
    /// and the accept loop are woken.
    fn shut_down(&self, requester: u64) {
        let mut connections = self.connections.lock().expect("connections");
        *self.finisher.lock().expect("finisher") = connections.remove(&requester);
        self.shutdown.store(true, Ordering::SeqCst);
        // A read blocked at a frame boundary or inside a frame returns at
        // once; a handler that registered after this sweep sees the flag
        // before it reads.
        for stream in connections.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        drop(connections);
        // On Linux, shutdown(2) on a listening socket makes a blocked
        // accept(2) return EINVAL. Where it is refused, a connection to the
        // socket wakes the accept instead.
        if self.listener_waker.shutdown(Shutdown::Both).is_err() {
            let _ = UnixStream::connect(&self.socket);
        }
    }
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bcc-served: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(options: Options) -> Result<(), String> {
    let mut config = match &options.config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read config {}: {e}", path.display()))?;
            serde_json::from_str::<EngineConfig>(&text)
                .map_err(|e| format!("cannot parse config {}: {e}", path.display()))?
        }
        None => EngineConfig::default(),
    };
    let (directory, open_enrollment) = match &options.tenants {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read tenants {}: {e}", path.display()))?;
            let directory = serde_json::from_str::<TenantDirectory>(&text)
                .map_err(|e| format!("cannot parse tenants {}: {e}", path.display()))?;
            directory
                .validate()
                .map_err(|e| format!("invalid tenant directory {}: {e}", path.display()))?;
            (directory, false)
        }
        None => (TenantDirectory::new(), true),
    };
    // Pre-registered tenants contribute their WFQ weight and rate limit to
    // the engine config before the engine is built.
    directory.apply(&mut config);

    let sink = TelemetrySink::enabled();
    let builder = StreamEngineBuilder::from_config(config.clone())
        .map_err(|e| format!("invalid engine config: {e}"))?;
    let mut engine = builder.telemetry(sink.clone()).build();

    // Replace a stale socket file (a previous daemon that did not exit
    // cleanly); a live listener would win the bind race either way.
    let _ = std::fs::remove_file(&options.socket);
    let listener = UnixListener::bind(&options.socket)
        .map_err(|e| format!("cannot bind {}: {e}", options.socket.display()))?;
    let listener_waker = listener
        .try_clone()
        .map(|listener| UnixStream::from(OwnedFd::from(listener)))
        .map_err(|e| format!("cannot duplicate the listener: {e}"))?;
    eprintln!(
        "bcc-served: serving on {} ({} enrollment, seed {})",
        options.socket.display(),
        if open_enrollment { "open" } else { "closed" },
        config.seed,
    );

    let daemon = Daemon {
        config,
        directory: Mutex::new(directory),
        open_enrollment,
        accounts: TenantAccounts::new(),
        sink,
        shutdown: AtomicBool::new(false),
        finisher: Mutex::new(None),
        connections: Mutex::new(HashMap::new()),
        listener_waker,
        socket: options.socket.clone(),
    };

    let output = engine.serve(|client| {
        std::thread::scope(|scope| {
            let mut next_id = 0u64;
            let mut failing = false;
            while !daemon.shutting_down() {
                // Each connection holds two descriptors: the handler's and
                // the duplicate registered for shutdown. They share one
                // socket, and with it the write deadline.
                let accepted = listener.accept().and_then(|(stream, _)| {
                    stream.set_write_timeout(Some(WRITE_DEADLINE))?;
                    Ok((stream.try_clone()?, stream))
                });
                let (registered, stream) = match accepted {
                    Ok(pair) => pair,
                    // The shutdown wake-up surfaces here as an error.
                    Err(_) if daemon.shutting_down() => break,
                    Err(e) => {
                        // Out of descriptors, say: keep serving the open
                        // connections and retry until one closes.
                        if !failing {
                            eprintln!("bcc-served: accept failed: {e} (retrying)");
                        }
                        failing = true;
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                };
                failing = false;
                let id = next_id;
                next_id += 1;
                let daemon = &daemon;
                daemon
                    .connections
                    .lock()
                    .expect("connections")
                    .insert(id, registered);
                scope.spawn(move || {
                    handle_connection(id, &stream, client, daemon);
                    daemon.connections.lock().expect("connections").remove(&id);
                });
            }
            // Scope exit joins every handler; shutdown woke each one.
        });
    });
    let _ = std::fs::remove_file(&options.socket);

    // The engine drained everything admitted before serve() returned; now
    // the requester gets the deterministic final report.
    if let Some(mut stream) = daemon.finisher.lock().expect("finisher").take() {
        let _ = send_msg(
            &mut stream,
            &ServerMsg::Report {
                report: output.report.clone(),
            },
        );
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&output.report)
            .map_err(|e| format!("cannot serialize final report: {e}"))?
    );
    Ok(())
}

/// Reads the next client frame. `None` means the connection is over (peer
/// hang-up, fatal framing error after a best-effort fault reply, or daemon
/// shutdown).
fn next_msg(mut stream: &UnixStream, daemon: &Daemon) -> Option<ClientMsg> {
    // The flag is read before the blocking read, for a connection that
    // registered after the shutdown sweep, and after it, because a read the
    // sweep woke returns an end of stream or a truncated frame.
    let frame = (!daemon.shutting_down())
        .then(|| read_frame(&mut stream))
        .filter(|_| !daemon.shutting_down());
    let fault = match frame {
        None => fault_msg("shutting-down", "daemon is draining and will exit"),
        Some(Ok(Some(payload))) => match decode_msg::<ClientMsg>(&payload) {
            Ok(msg) => return Some(msg),
            // The frame boundary is intact but the payload is not a
            // protocol message; reject and drop the connection.
            Err(e) => fault_msg("malformed", e.to_string()),
        },
        Some(Ok(None)) => return None,
        // Framing is unrecoverable mid-stream: report best-effort and drop.
        Some(Err(e)) => fault_msg("framing", e.to_string()),
    };
    let _ = send_msg(&mut stream, &fault);
    None
}

/// Authenticates the connection's tenant from its `Hello` frame.
fn handshake(mut stream: &UnixStream, daemon: &Daemon) -> Option<(TenantConfig, Priority)> {
    let refuse = |mut stream: &UnixStream, code: &str, message: String| {
        let _ = send_msg(&mut stream, &fault_msg(code, message));
        None
    };
    let (schema, tenant) = match next_msg(stream, daemon)? {
        ClientMsg::Hello { schema, tenant } => (schema, tenant),
        other => {
            return refuse(
                stream,
                "protocol",
                format!("expected Hello as the first message, got {other:?}"),
            )
        }
    };
    if schema != WIRE_SCHEMA {
        return refuse(
            stream,
            "unsupported-schema",
            format!("peer speaks `{schema}`, this daemon speaks `{WIRE_SCHEMA}`"),
        );
    }
    let mut directory = daemon.directory.lock().expect("tenant directory");
    let class = match directory.class_of(&tenant) {
        Some(class) => class,
        None if daemon.open_enrollment => {
            match directory.register(TenantConfig::new(tenant.clone())) {
                Ok(class) => class,
                Err(e) => return refuse(stream, "tenant-rejected", e.to_string()),
            }
        }
        None => {
            return refuse(
                stream,
                "unknown-tenant",
                format!("tenant `{tenant}` is not enrolled (closed enrollment)"),
            )
        }
    };
    let tenant_config = directory
        .get(&tenant)
        .expect("registered tenant is in the directory")
        .clone();
    drop(directory);
    let hello = ServerMsg::Hello {
        schema: WIRE_SCHEMA.to_string(),
        tenant,
        class,
        config: daemon.config.clone(),
    };
    match send_msg(&mut stream, &hello) {
        Ok(()) => Some((tenant_config, class)),
        Err(_) => None,
    }
}

fn handle_connection(id: u64, mut stream: &UnixStream, client: &StreamClient<'_>, daemon: &Daemon) {
    let Some((tenant, class)) = handshake(stream, daemon) else {
        return;
    };
    // Per-tenant metric handles, resolved once per connection: the counters
    // live in the engine's registry under `tenant.<name>.*`, so they ride
    // along in every telemetry snapshot a client exports.
    let counters = daemon
        .sink
        .registry()
        .map(|registry| TenantCounters::register(registry, &tenant.name));
    // Wire tickets are submission indices; the opaque engine tickets live
    // here, so a bogus index from the wire is a typed fault, never a panic.
    let mut tickets: HashMap<u64, Ticket> = HashMap::new();
    while let Some(msg) = next_msg(stream, daemon) {
        let reply = match msg {
            ClientMsg::Hello { .. } => {
                let _ = send_msg(
                    &mut stream,
                    &fault_msg("protocol", "connection is already authenticated"),
                );
                return;
            }
            ClientMsg::Submit {
                request,
                deadline_ms,
            } => submit(
                client,
                daemon,
                &tenant,
                class,
                counters.as_ref(),
                &mut tickets,
                request,
                deadline_ms,
            ),
            ClientMsg::Poll { ticket } => poll(client, counters.as_ref(), &mut tickets, ticket),
            ClientMsg::Wait { ticket, timeout_ms } => {
                wait(client, counters.as_ref(), &mut tickets, ticket, timeout_ms)
            }
            ClientMsg::TelemetrySnapshot => match client.telemetry_snapshot() {
                Some(snapshot) => ServerMsg::Telemetry { snapshot },
                None => fault_msg("telemetry-disabled", "the engine has no telemetry sink"),
            },
            ClientMsg::ChromeTrace => match daemon.sink.chrome_trace() {
                Some(json) => ServerMsg::Trace { json },
                None => fault_msg("telemetry-disabled", "the engine has no telemetry sink"),
            },
            ClientMsg::Shutdown => {
                // The final report is written after the engine drains,
                // through the registered duplicate; this handler exits now.
                daemon.shut_down(id);
                return;
            }
        };
        if send_msg(&mut stream, &reply).is_err() {
            return;
        }
    }
}

fn fault_msg(code: &str, message: impl Into<String>) -> ServerMsg {
    ServerMsg::Fault {
        fault: WireFault::new(code, message),
    }
}

#[allow(clippy::too_many_arguments)]
fn submit(
    client: &StreamClient<'_>,
    daemon: &Daemon,
    tenant: &TenantConfig,
    class: Priority,
    counters: Option<&TenantCounters>,
    tickets: &mut HashMap<u64, Ticket>,
    request: bcc_client::wire::WireRequest,
    deadline_ms: Option<u64>,
) -> ServerMsg {
    let request = match request.into_request() {
        Ok(request) => request,
        Err(e) => {
            return ServerMsg::Failed {
                ticket: None,
                fault: WireFault::new("invalid-payload", e.to_string()),
            }
        }
    };
    // Laplacian topologies occupy the shared prepared-solver cache, so they
    // are charged against the tenant's quota before admission. An unmetered
    // tenant has no quota to charge, so its graph is fingerprinted only at
    // admission.
    if let (Request::Laplacian { graph, .. }, Some(_)) = (&request, tenant.cache_quota) {
        if let Err(e) = daemon
            .accounts
            .charge(tenant, bcc_graph::fingerprint(graph))
        {
            if let Some(tc) = counters {
                tc.quota_rejections.incr();
            }
            return ServerMsg::Failed {
                ticket: None,
                fault: WireFault::from_engine_error(&e),
            };
        }
    }
    let admitted = match deadline_ms {
        Some(ms) => client.submit_with_deadline(request, class, Duration::from_millis(ms)),
        None => client.submit(request, class),
    };
    match admitted {
        Ok(ticket) => {
            if let Some(tc) = counters {
                tc.submitted.incr();
            }
            let index = ticket.index();
            tickets.insert(index, ticket);
            ServerMsg::Submitted { ticket: index }
        }
        Err(e) => ServerMsg::Failed {
            ticket: None,
            fault: WireFault::from_engine_error(&e),
        },
    }
}

fn poll(
    client: &StreamClient<'_>,
    counters: Option<&TenantCounters>,
    tickets: &mut HashMap<u64, Ticket>,
    index: u64,
) -> ServerMsg {
    let Some(&ticket) = tickets.get(&index) else {
        return unknown_ticket(index);
    };
    match client.poll(ticket) {
        None => ServerMsg::Pending { ticket: index },
        Some(result) => {
            tickets.remove(&index);
            if let Some(tc) = counters {
                tc.completed.incr();
            }
            completed(index, result)
        }
    }
}

fn wait(
    client: &StreamClient<'_>,
    counters: Option<&TenantCounters>,
    tickets: &mut HashMap<u64, Ticket>,
    index: u64,
    timeout_ms: Option<u64>,
) -> ServerMsg {
    let Some(&ticket) = tickets.get(&index) else {
        return unknown_ticket(index);
    };
    let result = match timeout_ms {
        Some(ms) => client.wait_timeout(ticket, Duration::from_millis(ms)),
        None => client.wait(ticket),
    };
    if matches!(result, Err(bcc_core::Error::WaitTimeout { .. })) {
        // The ticket stays redeemable, exactly as in-process.
        return ServerMsg::Failed {
            ticket: Some(index),
            fault: WireFault::from_engine_error(&result.unwrap_err()),
        };
    }
    tickets.remove(&index);
    if let Some(tc) = counters {
        tc.completed.incr();
    }
    completed(index, result)
}

fn unknown_ticket(index: u64) -> ServerMsg {
    ServerMsg::Failed {
        ticket: Some(index),
        fault: WireFault::new(
            "unknown-ticket",
            format!("ticket {index} was never issued on this connection, or already collected"),
        ),
    }
}

fn completed(
    index: u64,
    result: Result<bcc_core::session::Outcome<bcc_core::Response>, bcc_core::Error>,
) -> ServerMsg {
    match result {
        Ok(outcome) => match WireResponse::from_response(&outcome.value) {
            Some(value) => ServerMsg::Done {
                ticket: index,
                outcome: WireOutcome {
                    value,
                    report: outcome.report,
                },
            },
            // Unreachable for requests admitted over the wire (v1 cannot
            // express LP requests), kept typed rather than panicking.
            None => ServerMsg::Failed {
                ticket: Some(index),
                fault: WireFault::new("internal", "response kind not expressible in bcc-wire/v1"),
            },
        },
        Err(e) => ServerMsg::Failed {
            ticket: Some(index),
            fault: WireFault::from_engine_error(&e),
        },
    }
}
