//! End-to-end tests of the `bcc-served` daemon over a real Unix socket:
//! the determinism contract across the IPC boundary (wire report
//! bit-identical to in-process), tenant enrollment and quota enforcement,
//! protocol robustness against garbage input and descriptor exhaustion,
//! handshake latency, and graceful drain.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bcc_client::wire::{
    read_frame, recv_msg, send_msg, write_frame, ClientMsg, ServerMsg, WIRE_SCHEMA,
};
use bcc_client::{ServedClient, WireError, WireRequest, WireResponse};
use bcc_core::config::Priority;
use bcc_core::laplacian::ScratchArena;
use bcc_core::stream::{StreamEngineBuilder, StreamReport};
use bcc_core::tenant::{TenantConfig, TenantDirectory};
use bcc_core::{Request, Response};
use bcc_graph::generators;
use bcc_graph::{DiGraph, FlowInstance};

/// A daemon child that is killed (best-effort) when the test ends, so a
/// failing assertion does not leak a process.
struct DaemonGuard {
    child: Child,
    socket: PathBuf,
}

impl DaemonGuard {
    /// Waits for the daemon to exit on its own (after a clean shutdown),
    /// failing if it is still running 10 s later.
    fn wait(mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("daemon waitable") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon still running 10 s after shutdown"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(status.success(), "daemon exited with {status}");
        // Disarm the Drop kill; wait() already reaped the child.
        self.child = Command::new("true").spawn().expect("spawn true");
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcc-served-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn spawn_daemon(dir: &Path, extra: &[&str]) -> DaemonGuard {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bcc-served"));
    cmd.args(extra).stderr(Stdio::null());
    spawn(dir, cmd)
}

/// Spawns `cmd`, which runs the daemon, with `--socket` appended.
fn spawn(dir: &Path, mut cmd: Command) -> DaemonGuard {
    let socket = dir.join("bcc.sock");
    let _ = std::fs::remove_file(&socket);
    cmd.arg("--socket").arg(&socket).stdout(Stdio::null());
    let child = cmd.spawn().expect("spawn bcc-served");
    DaemonGuard { child, socket }
}

/// Connects with retries while the daemon is still binding its socket.
fn connect(guard: &DaemonGuard, tenant: &str) -> Result<ServedClient, WireError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match ServedClient::connect(&guard.socket, tenant) {
            Err(WireError::Io { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            other => return other,
        }
    }
}

fn raw_connect(guard: &DaemonGuard) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(&guard.socket) {
            Ok(stream) => return stream,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("cannot connect to daemon: {e}"),
        }
    }
}

/// The mixed workload both sides of the bit-identity test submit: a
/// sparsification, two Laplacian solves on the same topology (the second
/// must hit the prepared-solver cache), and a small min-cost max-flow.
fn workload() -> Vec<Request> {
    let grid = generators::grid(3, 3);
    let mut b = vec![0.0; 9];
    b[0] = 1.0;
    b[8] = -1.0;
    let mut b2 = vec![0.0; 9];
    b2[2] = 2.0;
    b2[6] = -2.0;
    let flow = FlowInstance::new(
        DiGraph::from_arcs(4, [(0, 1, 2, 1), (0, 2, 1, 2), (1, 3, 2, 1), (2, 3, 2, 1)]),
        0,
        3,
    );
    vec![
        Request::sparsify(generators::grid(3, 4), 0.9),
        Request::laplacian(grid.clone(), b),
        Request::laplacian(grid, b2),
        Request::min_cost_max_flow(flow),
    ]
}

fn in_process_report(config: bcc_core::EngineConfig, class: Priority) -> StreamReport {
    let mut engine = StreamEngineBuilder::from_config(config)
        .expect("handshake config is valid")
        .build();
    let output = engine.serve(|client| {
        for request in workload() {
            let ticket = client.submit(request, class).expect("admit");
            client.wait(ticket).expect("complete");
        }
    });
    output.report
}

#[test]
fn wire_report_is_bit_identical_to_in_process() {
    let dir = test_dir("identity");
    let guard = spawn_daemon(&dir, &[]);
    let mut client = connect(&guard, "acme").expect("handshake");
    assert_eq!(client.class(), Priority::custom(0));

    for request in workload() {
        let wire = WireRequest::from_request(&request).expect("expressible in v1");
        let ticket = client.submit(wire).expect("admit");
        let outcome = client.wait(ticket).expect("complete");
        assert!(outcome.report.total_rounds > 0);
    }
    let config = client.config().clone();
    let class = client.class();
    let report = client.shutdown().expect("drained report");
    guard.wait();

    assert_eq!(report.requests, 4);
    assert_eq!(report.failures, 0);
    assert_eq!(report.cache_hits, 1, "second Laplacian reuses the solver");

    // The same workload driven in-process with the handshake's config must
    // produce the same report, bit for bit: determinism survives the IPC
    // boundary.
    let local = in_process_report(config, class);
    assert_eq!(report, local);
}

#[test]
fn telemetry_is_observable_over_the_wire() {
    let dir = test_dir("telemetry");
    let guard = spawn_daemon(&dir, &[]);
    let mut client = connect(&guard, "observer").expect("handshake");

    let request = WireRequest::from_request(&Request::sparsify(generators::grid(3, 3), 0.9))
        .expect("expressible");
    let ticket = client.submit(request).expect("admit");
    client.wait(ticket).expect("complete");

    let snapshot = client.telemetry_snapshot().expect("live snapshot");
    assert_eq!(snapshot.schema, "bcc-metrics/v1");
    assert!(snapshot.counter("stream.submitted") >= 1);
    assert!(snapshot.counter("stream.completed") >= 1);
    // Per-tenant counters ride along under the tenant's name prefix.
    assert_eq!(snapshot.counter("tenant.observer.submitted"), 1);
    assert_eq!(snapshot.counter("tenant.observer.completed"), 1);
    assert_eq!(snapshot.counter("tenant.observer.quota_rejections"), 0);

    let trace = client.chrome_trace().expect("trace export");
    assert!(
        trace.contains("traceEvents"),
        "Chrome trace-event envelope expected"
    );

    client.shutdown().expect("drained report");
    guard.wait();
}

#[test]
fn closed_enrollment_rejects_strangers_and_enforces_quotas() {
    let dir = test_dir("tenants");
    let mut directory = TenantDirectory::new();
    directory
        .register(TenantConfig {
            name: "victim".to_string(),
            weight: 4,
            rate_limit: None,
            cache_quota: Some(1),
        })
        .expect("register victim");
    directory
        .register(TenantConfig::new("flooder"))
        .expect("register flooder");
    let tenants_path = dir.join("tenants.json");
    std::fs::write(
        &tenants_path,
        serde_json::to_string_pretty(&directory).expect("serialize directory"),
    )
    .expect("write tenants file");

    let guard = spawn_daemon(&dir, &["--tenants", tenants_path.to_str().unwrap()]);

    // Unknown tenants are refused at handshake.
    let err = connect(&guard, "stranger").expect_err("closed enrollment");
    match err {
        WireError::Remote(fault) => assert_eq!(fault.code, "unknown-tenant"),
        other => panic!("expected a remote fault, got {other:?}"),
    }

    // The victim's quota admits one distinct topology, then rejects.
    let mut victim = connect(&guard, "victim").expect("enrolled tenant");
    assert_eq!(victim.class(), Priority::custom(0));
    let mut b = vec![0.0; 9];
    b[0] = 1.0;
    b[8] = -1.0;
    let first = WireRequest::from_request(&Request::laplacian(generators::grid(3, 3), b.clone()))
        .expect("expressible");
    let ticket = victim.submit(first).expect("within quota");
    victim.wait(ticket).expect("complete");

    // Same topology again: already charged, still admitted.
    let mut b2 = vec![0.0; 9];
    b2[4] = 1.0;
    b2[0] = -1.0;
    let again = WireRequest::from_request(&Request::laplacian(generators::grid(3, 3), b2))
        .expect("expressible");
    let ticket = victim.submit(again).expect("charged topology is free");
    victim.wait(ticket).expect("complete");

    // A second distinct topology exceeds the quota of 1, typed.
    let mut b3 = vec![0.0; 16];
    b3[0] = 1.0;
    b3[15] = -1.0;
    let over = WireRequest::from_request(&Request::laplacian(generators::grid(4, 4), b3))
        .expect("expressible");
    match victim.submit(over) {
        Err(WireError::Remote(fault)) => {
            assert_eq!(fault.code, "quota-exceeded");
            assert!(fault.message.contains("victim"));
        }
        other => panic!("expected quota rejection, got {other:?}"),
    }

    // The rejection is visible in the tenant's own metric prefix: two
    // admitted submissions, one quota refusal.
    let snapshot = victim.telemetry_snapshot().expect("live snapshot");
    assert_eq!(snapshot.counter("tenant.victim.submitted"), 2);
    assert_eq!(snapshot.counter("tenant.victim.completed"), 2);
    assert_eq!(snapshot.counter("tenant.victim.quota_rejections"), 1);

    victim.shutdown().expect("drained report");
    guard.wait();
}

#[test]
fn garbage_input_yields_typed_faults_not_hangs() {
    let dir = test_dir("garbage");
    let guard = spawn_daemon(&dir, &[]);

    // An oversized length prefix: the daemon must answer a typed fault (or
    // close), never allocate or hang.
    {
        let mut stream = raw_connect(&guard);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        stream.flush().unwrap();
        let reply = read_frame(&mut stream);
        match reply {
            Ok(Some(payload)) => {
                let msg: ServerMsg = bcc_client::wire::decode_msg(&payload).unwrap();
                match msg {
                    ServerMsg::Fault { fault } => assert_eq!(fault.code, "framing"),
                    other => panic!("expected framing fault, got {other:?}"),
                }
            }
            Ok(None) => {} // connection dropped: acceptable
            Err(e) => panic!("reader errored instead of fault/close: {e}"),
        }
        // And the connection is dropped afterwards.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    // A truncated frame: announce 100 bytes, send 3, hang up.
    {
        let mut stream = raw_connect(&guard);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(b"abc").unwrap();
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        // The daemon reports a fault or just closes; it must not hang.
        let _ = stream.read_to_end(&mut rest);
    }

    // Valid framing, invalid JSON.
    {
        let mut stream = raw_connect(&guard);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, b"this is not json").unwrap();
        let payload = read_frame(&mut stream).unwrap().expect("fault reply");
        let msg: ServerMsg = bcc_client::wire::decode_msg(&payload).unwrap();
        match msg {
            ServerMsg::Fault { fault } => assert_eq!(fault.code, "malformed"),
            other => panic!("expected malformed fault, got {other:?}"),
        }
    }

    // Valid JSON, unknown message tag.
    {
        let mut stream = raw_connect(&guard);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, br#"{"Bogus":{"x":1}}"#).unwrap();
        let payload = read_frame(&mut stream).unwrap().expect("fault reply");
        let msg: ServerMsg = bcc_client::wire::decode_msg(&payload).unwrap();
        match msg {
            ServerMsg::Fault { fault } => assert_eq!(fault.code, "malformed"),
            other => panic!("expected malformed fault, got {other:?}"),
        }
    }

    // A protocol message out of order: Submit before Hello.
    {
        let mut stream = raw_connect(&guard);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        send_msg(&mut stream, &ClientMsg::Shutdown).unwrap();
        let payload = read_frame(&mut stream).unwrap().expect("fault reply");
        let msg: ServerMsg = bcc_client::wire::decode_msg(&payload).unwrap();
        match msg {
            ServerMsg::Fault { fault } => assert_eq!(fault.code, "protocol"),
            other => panic!("expected protocol fault, got {other:?}"),
        }
    }

    // After all that abuse the daemon still serves real clients.
    let mut client = connect(&guard, "survivor").expect("daemon still alive");
    let request = WireRequest::from_request(&Request::sparsify(generators::grid(3, 3), 0.9))
        .expect("expressible");
    let ticket = client.submit(request).expect("admit");
    client.wait(ticket).expect("complete");

    // A client that stalls inside a frame: after its handshake it sends two
    // bytes of a length prefix and nothing more. Shutdown must still answer
    // at once, and the stalled connection reads a typed fault.
    let mut stalled = raw_connect(&guard);
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    send_msg(
        &mut stalled,
        &ClientMsg::Hello {
            schema: WIRE_SCHEMA.to_string(),
            tenant: "staller".to_string(),
        },
    )
    .unwrap();
    match recv_msg::<ServerMsg>(&mut stalled) {
        Ok(ServerMsg::Hello { .. }) => {}
        other => panic!("expected a handshake, got {other:?}"),
    }
    stalled.write_all(&[0, 0]).unwrap();
    stalled.flush().unwrap();

    let (done, report) = mpsc::channel();
    let requester = std::thread::spawn(move || {
        let _ = done.send(client.shutdown());
    });
    report
        .recv_timeout(Duration::from_secs(5))
        .expect("no final report within 5 s of shutdown")
        .expect("drained report");
    requester.join().expect("shutdown requester");
    guard.wait();
    match recv_msg::<ServerMsg>(&mut stalled) {
        Ok(ServerMsg::Fault { fault }) => assert_eq!(fault.code, "shutting-down"),
        other => panic!("expected a shutting-down fault, got {other:?}"),
    }
}

#[test]
fn shutdown_answers_while_a_client_never_reads_its_reply() {
    let dir = test_dir("never-reads");
    let guard = spawn_daemon(&dir, &[]);

    // Five hundred warm solves make the engine's Chrome trace about 0.5 MB.
    let mut client = connect(&guard, "reader").expect("handshake");
    let grid = generators::grid(4, 4);
    for k in 0..500 {
        let mut b = vec![0.0; grid.n()];
        b[k % 16] += 1.0;
        b[15 - k % 16] -= 1.0;
        let request =
            WireRequest::from_request(&Request::laplacian(grid.clone(), b)).expect("expressible");
        let ticket = client.submit(request).expect("admit");
        client.wait(ticket).expect("complete");
    }

    // Another client asks for the trace and reads only its length prefix.
    // The reply is larger than the socket buffer (208 KiB by default on
    // Linux), so its handler is still writing it when shutdown starts.
    let mut silent = raw_connect(&guard);
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_msg(
        &mut silent,
        &ClientMsg::Hello {
            schema: WIRE_SCHEMA.to_string(),
            tenant: "silent".to_string(),
        },
    )
    .unwrap();
    match recv_msg::<ServerMsg>(&mut silent) {
        Ok(ServerMsg::Hello { .. }) => {}
        other => panic!("expected a handshake, got {other:?}"),
    }
    send_msg(&mut silent, &ClientMsg::ChromeTrace).unwrap();
    let mut prefix = [0u8; 4];
    silent
        .read_exact(&mut prefix)
        .expect("the trace reply starts within 10 s");
    let len = u32::from_be_bytes(prefix);
    assert!(len > 256 << 10, "a {len}-byte trace fits the socket buffer");

    let (done, report) = mpsc::channel();
    let requester = std::thread::spawn(move || {
        let _ = done.send(client.shutdown());
    });
    let report = report
        .recv_timeout(Duration::from_secs(10))
        .expect("no final report within 10 s of shutdown")
        .expect("drained report");
    assert_eq!(report.requests, 500);
    requester.join().expect("shutdown requester");
    guard.wait();
    drop(silent);
}

#[test]
fn an_unterminated_long_string_is_a_prompt_malformed_fault() {
    // The daemon decodes every frame before it checks anything else, so a
    // first frame holding a 4 MiB string that never ends must cost it time
    // linear in its length. A decoder quadratic in that length would keep the
    // handler busy for hours; the bounded waits make such a decoder fail this
    // test instead of hanging it.
    let dir = test_dir("long-string");
    let guard = spawn_daemon(&dir, &[]);
    let mut stream = raw_connect(&guard);
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut frame = br#"{"Hello":{"schema":""#.to_vec();
    frame.resize(frame.len() + (4 << 20), b'a');
    write_frame(&mut stream, &frame).unwrap();
    let payload = read_frame(&mut stream)
        .expect("a fault within 5 s")
        .expect("fault reply");
    match bcc_client::wire::decode_msg::<ServerMsg>(&payload).unwrap() {
        ServerMsg::Fault { fault } => assert_eq!(fault.code, "malformed"),
        other => panic!("expected malformed fault, got {other:?}"),
    }

    let client = connect(&guard, "after-long-string").expect("daemon still serving");
    client.shutdown().expect("drained report");
    guard.wait();
}

#[test]
fn twenty_handshakes_are_answered_without_waiting_out_a_poll() {
    let dir = test_dir("handshakes");
    let guard = spawn_daemon(&dir, &[]);
    // The first handshake also waits for the daemon to listen.
    let first = connect(&guard, "tenant-0").expect("handshake");

    let started = Instant::now();
    let others: Vec<ServedClient> = (1..=20)
        .map(|i| ServedClient::connect(&guard.socket, &format!("tenant-{i}")).expect("handshake"))
        .collect();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "20 sequential handshakes took {elapsed:?}"
    );

    // Shutdown wakes the twenty idle connections too.
    first.shutdown().expect("drained report");
    guard.wait();
    drop(others);
}

#[test]
fn a_descriptor_storm_does_not_end_the_daemon() {
    let dir = test_dir("storm");
    // With 32 descriptors the daemon holds about a dozen connections, so
    // a storm of 40 makes `accept` fail with "Too many open files".
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg(r#"ulimit -n 32; exec "$0" "$@""#)
        .arg(env!("CARGO_BIN_EXE_bcc-served"))
        .stderr(Stdio::piped());
    let mut guard = spawn(&dir, cmd);
    let (line, lines) = mpsc::channel();
    let stderr = BufReader::new(guard.child.stderr.take().expect("piped stderr"));
    let log = std::thread::spawn(move || {
        for text in stderr.lines().map_while(Result::ok) {
            let _ = line.send(text);
        }
    });

    let storm: Vec<UnixStream> = (0..40).map(|_| raw_connect(&guard)).collect();
    // The daemon logs the first failed accept; wait for it, so the storm
    // closes only after it has exhausted the daemon's descriptors.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match lines.recv_timeout(left) {
            Ok(text) if text.contains("accept failed") => break,
            Ok(_) => {}
            Err(e) => panic!("no failed accept logged during the storm: {e}"),
        }
    }
    drop(storm);

    let mut client = connect(&guard, "after-storm").expect("daemon still serving");
    let request = WireRequest::from_request(&Request::sparsify(generators::grid(3, 3), 0.9))
        .expect("expressible");
    let ticket = client.submit(request).expect("admit");
    client.wait(ticket).expect("complete");
    let report = client.shutdown().expect("drained report");
    guard.wait();
    log.join().expect("stderr reader");
    assert_eq!(report.requests, 1);
}

/// Submits `bad` as one tenant and expects a typed `laplacian` fault that
/// says what overflowed; then another tenant's valid request must be served,
/// so the scope is not poisoned.
fn an_overflow_is_a_typed_fault_and_the_next_tenant_is_served(name: &str, bad: Request) {
    let dir = test_dir(name);
    let guard = spawn_daemon(&dir, &[]);

    let mut attacker = connect(&guard, "attacker").expect("handshake");
    let bad = WireRequest::from_request(&bad).expect("expressible");
    let ticket = attacker.submit(bad).expect("admitted");
    match attacker.wait(ticket) {
        Err(WireError::Remote(fault)) => {
            assert_eq!(fault.code, "laplacian");
            assert!(fault.message.contains("overflows"), "{}", fault.message);
        }
        other => panic!("expected a laplacian fault, got {other:?}"),
    }

    let mut bystander = connect(&guard, "bystander").expect("handshake");
    let mut b = vec![0.0; 9];
    b[0] = 1.0;
    b[8] = -1.0;
    let good = WireRequest::from_request(&Request::laplacian(generators::grid(3, 3), b))
        .expect("expressible");
    let ticket = bystander.submit(good).expect("admitted");
    let outcome = bystander.wait(ticket).expect("served");
    assert!(outcome.report.total_rounds > 0);

    attacker.shutdown().expect("drained report");
    guard.wait();
}

#[test]
fn an_overflowing_right_hand_side_is_a_typed_fault_and_the_next_tenant_is_served() {
    // Finite JSON numbers whose broadcast range (‖b‖∞ + 1)·n·max_weight
    // overflows f64.
    let mut b = vec![0.0; 9];
    b[0] = 1.7e308;
    b[8] = -1.7e308;
    an_overflow_is_a_typed_fault_and_the_next_tenant_is_served(
        "overflow",
        Request::laplacian(generators::grid(3, 3), b),
    );
}

#[test]
fn a_sparsifier_weight_overflow_is_a_typed_fault_and_the_next_tenant_is_served() {
    // Finite weights, and a finite n·max_weight, on parallel edges that the
    // sparsifier's reweighting by 4 per iteration carries past f64::MAX.
    let mut graph = generators::cycle(4);
    for _ in 0..12 {
        graph.add_edge(0, 1, 1e307);
    }
    an_overflow_is_a_typed_fault_and_the_next_tenant_is_served(
        "reweight-overflow",
        Request::laplacian(graph, vec![1.0, 0.0, 0.0, -1.0]),
    );
}

#[test]
fn same_graph_solves_of_two_connections_share_lockstep_blocks() {
    // A one-worker daemon held by a slow min-cost flow while two connections
    // queue solves on one grid: the worker solves the queued solves as
    // lockstep blocks, and every answer is the solo solve's, bit for bit.
    let dir = test_dir("lockstep");
    let config = bcc_core::EngineConfig {
        workers: Some(1),
        max_workers: None,
        ..bcc_core::EngineConfig::default()
    };
    let config_path = dir.join("engine.json");
    std::fs::write(
        &config_path,
        serde_json::to_string_pretty(&config).expect("serialize config"),
    )
    .expect("write config file");
    let guard = spawn_daemon(&dir, &["--config", config_path.to_str().unwrap()]);
    let mut flows = connect(&guard, "flows").expect("handshake");
    let mut clients = [
        connect(&guard, "alpha").expect("handshake"),
        connect(&guard, "beta").expect("handshake"),
    ];

    let flow = FlowInstance::new(
        DiGraph::from_arcs(
            6,
            [
                (0, 1, 3, 1),
                (0, 2, 2, 2),
                (1, 2, 1, 1),
                (1, 3, 2, 3),
                (2, 4, 3, 1),
                (3, 5, 2, 1),
                (4, 3, 1, 1),
                (4, 5, 2, 2),
            ],
        ),
        0,
        5,
    );
    let slow = flows
        .submit(WireRequest::from_request(&Request::min_cost_max_flow(flow)).expect("expressible"))
        .expect("admit");
    let grid = generators::grid(4, 4);
    let rhs = |k: usize| -> Vec<f64> { (0..16).map(|i| ((5 * i + 3 * k) as f64).cos()).collect() };
    let mut tickets = Vec::new();
    for k in 0..8 {
        let request = WireRequest::from_request(&Request::laplacian(grid.clone(), rhs(k)))
            .expect("expressible");
        tickets.push((k, clients[k % 2].submit(request).expect("admit")));
    }
    flows.wait(slow).expect("the flow solves");

    let prepared = bcc_core::Session::builder()
        .model(config.model)
        .seed(config.seed)
        .epsilon(config.epsilon)
        .build()
        .laplacian(&grid)
        .preprocess()
        .expect("a connected grid");
    for (k, ticket) in tickets {
        let got = clients[k % 2].wait(ticket).expect("complete");
        let want = prepared
            .solve_shared(&rhs(k), None, &mut ScratchArena::new())
            .expect("a valid right-hand side");
        let want_value =
            WireResponse::from_response(&Response::Laplacian(want.value)).expect("expressible");
        assert_eq!(got.value, want_value, "solve {k}");
        assert_eq!(got.report, want.report, "solve {k}");
    }
    let snapshot = clients[0].telemetry_snapshot().expect("live snapshot");
    assert!(snapshot.counter("stream.lockstep_batches") >= 1);

    let [alpha, _beta] = clients;
    let report = alpha.shutdown().expect("drained report");
    guard.wait();
    assert_eq!(report.requests, 9);
    assert_eq!(report.failures, 0);
    assert_eq!((report.cache_misses, report.cache_hits), (1, 7));
}

#[test]
fn shutdown_drains_in_flight_submissions() {
    let dir = test_dir("drain");
    let guard = spawn_daemon(&dir, &[]);
    let mut client = connect(&guard, "drainer").expect("handshake");

    // Submit a burst and shut down without collecting anything: the drain
    // must execute all of it, and the final report accounts for it.
    let mut submitted = 0;
    for _ in 0..6 {
        let request = WireRequest::from_request(&Request::sparsify(generators::grid(3, 4), 0.9))
            .expect("expressible");
        client.submit(request).expect("admit");
        submitted += 1;
    }
    let report = client.shutdown().expect("drained report");
    guard.wait();

    assert_eq!(report.requests, submitted);
    assert_eq!(report.failures, 0, "drained work runs to completion");
    assert_eq!(report.per_request.len() as u64, submitted);

    // The handshake schema sanity: the report itself is versioned.
    assert_eq!(report.schema, "bcc-stream-report/v2");
    assert_eq!(WIRE_SCHEMA, "bcc-wire/v1");
}

#[test]
fn wait_timeout_keeps_the_ticket_redeemable_over_the_wire() {
    let dir = test_dir("waittimeout");
    let guard = spawn_daemon(&dir, &[]);
    let mut client = connect(&guard, "patient").expect("handshake");

    let request = WireRequest::from_request(&Request::sparsify(generators::grid(4, 4), 0.9))
        .expect("expressible");
    let ticket = client.submit(request).expect("admit");
    // A zero timeout may or may not beat the worker; both outcomes are
    // legal, but a timeout must leave the ticket redeemable.
    match client.wait_timeout(ticket, Duration::from_millis(0)) {
        Ok(outcome) => assert!(outcome.report.total_rounds > 0),
        Err(WireError::Remote(fault)) => {
            assert_eq!(fault.code, "wait-timeout");
            let outcome = client.wait(ticket).expect("still redeemable");
            assert!(outcome.report.total_rounds > 0);
        }
        Err(other) => panic!("unexpected transport error: {other}"),
    }

    // A ticket that was never issued is a typed fault, not a crash.
    match client.wait(999) {
        Err(WireError::Remote(fault)) => assert_eq!(fault.code, "unknown-ticket"),
        other => panic!("expected unknown-ticket, got {other:?}"),
    }

    client.shutdown().expect("drained report");
    guard.wait();
}
