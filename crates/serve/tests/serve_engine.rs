//! End-to-end engine contract of the serve daemon, over a real Unix
//! socket: served documents are byte-identical to direct registry
//! output, K concurrent identical requests coalesce onto exactly one
//! solver run, a full admission queue answers `Busy` instead of
//! hanging, queued requests respect their deadline, and shutdown
//! drains cleanly (socket removed, all connections joined).

use std::path::PathBuf;
use std::time::Duration;

use mrlr_core::api::{Backend, Instance, Registry};
use mrlr_core::io::{self, CertificateMode, TimingMode};
use mrlr_graph::generators;
use mrlr_serve::client::{Client, ClientError};
use mrlr_serve::protocol::{RenderOpts, ReportFormat, Request, Response, SolveSpec};
use mrlr_serve::server::{serve, ServeConfig};

fn unique_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mrlr-serve-test-{}-{tag}.sock", std::process::id()))
}

fn sample_instance_text(seed: u64) -> String {
    let g = generators::with_uniform_weights(&generators::densified(30, 0.4, seed), 1.0, 9.0, seed);
    io::render_instance(&Instance::Graph(g))
}

fn solve_request(instance_text: &str, seed: u64, timeout_millis: u64) -> Request {
    Request::Solve {
        spec: SolveSpec {
            algorithm: "matching".into(),
            backend: "mr".into(),
            instance_text: instance_text.into(),
            mu_bits: 0.3f64.to_bits(),
            seed,
            threads: None,
            machines: None,
            workers: None,
        },
        render: RenderOpts {
            format: ReportFormat::Json,
            mask_timings: true,
            certificates_full: true,
        },
        timeout_millis,
    }
}

/// Starts a daemon thread and waits until its socket accepts.
fn start(
    cfg: ServeConfig,
) -> (
    PathBuf,
    std::thread::JoinHandle<std::io::Result<mrlr_serve::StatsSnapshot>>,
) {
    let socket = cfg.socket.clone();
    let handle = std::thread::spawn(move || serve(cfg));
    for _ in 0..200 {
        if Client::connect(&socket).is_ok() {
            return (socket, handle);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never came up on {}", socket.display());
}

#[test]
fn served_report_is_byte_identical_to_direct_solve_and_audits_clean() {
    let socket = unique_socket("identity");
    let (socket, handle) = start(ServeConfig::new(&socket));
    let text = sample_instance_text(7);

    let mut client = Client::connect(&socket).unwrap();
    assert_eq!(client.ping(99).unwrap(), 99);
    let served = client
        .solve(&solve_request(&text, 42, 0), &mut |_| {})
        .unwrap();
    assert!(!served.coalesced);

    // The same run, straight through the registry, rendered identically.
    let instance = io::parse_instance(&text).unwrap();
    let cfg = instance.auto_config(0.3, 42);
    let report = Registry::with_defaults()
        .solve_with("matching", Backend::Mr, &instance, &cfg)
        .unwrap();
    let direct = io::report_json_with(&report, TimingMode::Masked, CertificateMode::Full).render();
    assert_eq!(
        served.content, direct,
        "served document must be bit-identical"
    );

    // The served document audits clean on the daemon too.
    let (algorithm, backend, checks) = client.verify(text.clone(), served.content).unwrap();
    assert_eq!(algorithm, "matching");
    assert_eq!(backend, "mr");
    assert!(!checks.is_empty());

    client.shutdown().unwrap();
    let stats = handle.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket must be removed on shutdown");
    assert_eq!(stats.solver_runs, 1);
    assert_eq!(stats.requests, 2, "solve + verify pass admission");
    assert_eq!(stats.busy_rejects, 0);
}

#[test]
fn concurrent_identical_requests_share_exactly_one_solver_run() {
    let mut cfg = ServeConfig::new(unique_socket("coalesce"));
    // The runner holds its slot (and its coalescing entry) long enough
    // for the waiters to attach deterministically.
    cfg.hold = Duration::from_millis(800);
    let (socket, handle) = start(cfg);
    let text = sample_instance_text(8);

    // Runner: request sent, admission confirmed — the run is now in
    // flight and will not publish for `hold`.
    let mut runner = Client::connect(&socket).unwrap();
    runner.send(&solve_request(&text, 42, 0)).unwrap();
    assert!(matches!(runner.recv().unwrap(), Response::Admitted));

    // Waiters: identical spec, attached while the run is held open.
    const WAITERS: usize = 3;
    let mut joins = Vec::new();
    for _ in 0..WAITERS {
        let socket = socket.clone();
        let text = text.clone();
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(&socket).unwrap();
            c.solve(&solve_request(&text, 42, 0), &mut |_| {}).unwrap()
        }));
    }
    let mut contents = Vec::new();
    for j in joins {
        let served = j.join().unwrap();
        assert!(served.coalesced, "waiters must share the runner's run");
        contents.push(served.content);
    }
    // Drain the runner's own frames (notes then the report).
    let runner_content = loop {
        match runner.recv().unwrap() {
            Response::Note { .. } => {}
            Response::Report { content, coalesced } => {
                assert!(!coalesced);
                break content;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    };
    for c in &contents {
        assert_eq!(c, &runner_content, "all waiters get the identical report");
    }

    let mut client = Client::connect(&socket).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.solver_runs, 1, "exactly one solver run observed");
    assert_eq!(stats.coalesce_hits as usize, WAITERS);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn full_queue_answers_busy_instead_of_hanging() {
    let mut cfg = ServeConfig::new(unique_socket("busy"));
    cfg.max_inflight = 1;
    cfg.queue = 0;
    cfg.hold = Duration::from_millis(800);
    let (socket, handle) = start(cfg);
    let text = sample_instance_text(9);

    let mut holder = Client::connect(&socket).unwrap();
    holder.send(&solve_request(&text, 42, 0)).unwrap();
    assert!(matches!(holder.recv().unwrap(), Response::Admitted));

    // A *different* solve (different seed — different coalescing key)
    // finds the slot held and the queue full: explicit Busy, instantly.
    let mut rejected = Client::connect(&socket).unwrap();
    match rejected.solve(&solve_request(&text, 43, 0), &mut |_| {}) {
        Err(ClientError::Busy {
            in_flight, limit, ..
        }) => {
            assert_eq!(in_flight, 1);
            assert_eq!(limit, 1);
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // The holder's run is unaffected by the rejection.
    loop {
        match holder.recv().unwrap() {
            Response::Note { .. } => {}
            Response::Report { .. } => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let mut client = Client::connect(&socket).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.busy_rejects, 1);
    assert_eq!(stats.solver_runs, 1);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn queued_request_times_out_with_an_error_frame() {
    let mut cfg = ServeConfig::new(unique_socket("timeout"));
    cfg.max_inflight = 1;
    cfg.queue = 1;
    cfg.hold = Duration::from_millis(800);
    let (socket, handle) = start(cfg);
    let text = sample_instance_text(10);

    let mut holder = Client::connect(&socket).unwrap();
    holder.send(&solve_request(&text, 42, 0)).unwrap();
    assert!(matches!(holder.recv().unwrap(), Response::Admitted));

    // Queued behind the holder with a 100 ms budget: deadline expires
    // long before the 800 ms hold releases the slot.
    let mut queued = Client::connect(&socket).unwrap();
    match queued.solve(&solve_request(&text, 43, 100), &mut |_| {}) {
        Err(ClientError::Remote(msg)) => {
            assert!(msg.contains("timed out"), "got: {msg}")
        }
        other => panic!("expected a timeout error, got {other:?}"),
    }

    loop {
        match holder.recv().unwrap() {
            Response::Note { .. } => {}
            Response::Report { .. } => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let mut client = Client::connect(&socket).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.queue_depth_high_water, 1);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A client that queues for admission and hangs up before its turn costs
/// the daemon nothing: the `Admitted` write to it fails, and the slot it
/// was just given and the coalescing entry it ran under are both given
/// back. With one slot, a leak of either would leave the next solve
/// queued until its deadline, and a repeat of the dead client's request
/// parked on a run that never publishes.
#[test]
fn client_gone_at_admission_leaks_neither_slot_nor_coalescing_entry() {
    use mrlr_mapreduce::dist::transport::write_wire_frame;

    let mut cfg = ServeConfig::new(unique_socket("gone"));
    cfg.max_inflight = 1;
    cfg.hold = Duration::from_millis(300);
    let (socket, handle) = start(cfg);
    let text = sample_instance_text(12);

    let mut holder = Client::connect(&socket).unwrap();
    holder.send(&solve_request(&text, 42, 0)).unwrap();
    assert!(matches!(holder.recv().unwrap(), Response::Admitted));

    // Queues behind the holder (a different key), then hangs up.
    let gone_request = solve_request(&text, 43, 0);
    let mut gone = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    write_wire_frame(&mut gone, &gone_request).unwrap();
    drop(gone);

    loop {
        match holder.recv().unwrap() {
            Response::Note { .. } => {}
            Response::Report { .. } => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // Both budgets are far above the two 300 ms holds they can queue
    // behind and far below forever.
    let mut client = Client::connect(&socket).unwrap();
    client
        .solve(&solve_request(&text, 44, 5_000), &mut |_| {})
        .expect("a fresh solve is served: the slot came back");
    let Request::Solve { spec, render, .. } = gone_request else {
        unreachable!()
    };
    let repeat = Request::Solve {
        spec,
        render,
        timeout_millis: 5_000,
    };
    // If the dead client's turn comes only now, this repeat can still
    // attach to its run — and is told the runner is gone, not parked.
    let served = loop {
        match client.solve(&repeat, &mut |_| {}) {
            Ok(served) => break served,
            Err(ClientError::Remote(msg)) if msg.contains("runner connection lost") => {}
            other => panic!("the dead client's entry was never retired: {other:?}"),
        }
    };
    assert!(!served.coalesced, "a fresh run, not the dead one");

    let stats = client.stats().unwrap();
    assert_eq!((stats.busy_rejects, stats.timeouts), (0, 0));
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A hostile problem line in a `Solve` frame is one failed request, not a
/// dead connection or a dead daemon: the client gets an `Error` frame
/// with the parser's message, and the same connection — and a fresh one
/// — still answer.
#[test]
fn hostile_instance_headers_answer_with_an_error_frame() {
    let socket = unique_socket("hostile");
    let (socket, handle) = start(ServeConfig::new(&socket));
    let mut client = Client::connect(&socket).unwrap();
    for (text, needle) in [
        (
            "p graph 3 18446744073709551615\ne 0 1\n",
            "promised 18446744073709551615 edges, found 1",
        ),
        (
            "p graph 3 4611686018427387904\ne 0 1\n",
            "promised 4611686018427387904 edges, found 1",
        ),
        (
            "p vertex-weighted 1152921504606846976 0\nn 0 1.0\n",
            "line 1, column 19: vertex count",
        ),
        (
            "p set-system 3 18446744073709551615\ns 1.0 0\n",
            "promised 18446744073709551615 sets, found 1",
        ),
    ] {
        match client.solve(&solve_request(text, 42, 0), &mut |_| {}) {
            Err(ClientError::Remote(message)) => {
                assert!(message.contains(needle), "{text:?}: {message}")
            }
            other => panic!("{text:?}: expected an Error frame, got {other:?}"),
        }
        assert_eq!(client.ping(7).unwrap(), 7, "connection survives {text:?}");
    }
    assert_eq!(Client::connect(&socket).unwrap().ping(8).unwrap(), 8);

    client.shutdown().unwrap();
    let stats = handle.join().unwrap().unwrap();
    assert_eq!(stats.solver_runs, 0, "no hostile request reached a solver");
}

#[test]
fn batch_request_matches_offline_document_shape() {
    let socket = unique_socket("batch");
    let (socket, handle) = start(ServeConfig::new(&socket));
    let text = sample_instance_text(11);

    let mut client = Client::connect(&socket).unwrap();
    let request = Request::Batch {
        instances: vec![("g.inst".into(), text.clone())],
        jobs: vec![mrlr_serve::protocol::BatchJob {
            algorithm: "matching".into(),
            mu_bits: 0.3f64.to_bits(),
            seed: 42,
            threads: None,
        }],
        backend: "mr".into(),
        render: RenderOpts {
            format: ReportFormat::Json,
            mask_timings: true,
            certificates_full: true,
        },
        timeout_millis: 0,
    };
    let mut notes = Vec::new();
    let served = client
        .solve(&request, &mut |line| notes.push(line.to_string()))
        .unwrap();
    assert!(
        notes.iter().any(|n| n.contains("instance 1/1")),
        "{notes:?}"
    );

    // The served document is a real batch document: it parses and its
    // single slot audits clean offline.
    let root = io::parse_json(&served.content).unwrap();
    assert!(io::is_batch_document(&root));
    let batch = io::parse_batch(&served.content).unwrap();
    assert_eq!(batch.instances, vec!["g.inst".to_string()]);
    let instance = io::parse_instance(&text).unwrap();
    match &batch.results[0][0] {
        io::BatchSlot::Report(stored) => {
            mrlr_core::api::witness::audit(
                &instance,
                &stored.algorithm,
                &stored.solution,
                &stored.claims,
                stored.witness.as_ref().unwrap(),
            )
            .unwrap();
        }
        io::BatchSlot::Error(e) => panic!("batch slot errored: {e}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
