//! The observability plane over a live daemon: `STATS` round-trips
//! (including while draining), snapshot consistency under concurrent
//! scheduling load, agreement of `STATS` with the server's own ledger
//! whether or not recording is on, trace ids on answers, and the
//! crash flight recorder capturing an injected panic's post-mortem.
//!
//! The recorder and metrics registry are process-global, so every
//! test here serializes through one mutex and restores the master
//! switch on exit.

use hls_ir::faultinject::{arm, FaultPlan};
use hls_ir::{bench_graphs, textfmt};
use hls_serve::{
    BindAddr, CacheStatus, Client, ClientError, RejectKind, RequestOpts, ServeConfig, Server,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// RAII master-switch guard: recording on for the test body, off
/// again on drop (even on panic).
struct Recording;

impl Recording {
    fn start() -> Recording {
        hls_obs::set_enabled(true);
        Recording
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        hls_obs::set_enabled(false);
    }
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(&BindAddr::Tcp("127.0.0.1:0".into()), cfg).expect("bind ephemeral port")
}

/// Pulls a top-level `"name":N` integer out of the flat metrics JSON.
fn counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = json.find(&key).unwrap_or_else(|| panic!("no {name} in {json}"));
    json[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {name} in {json}"))
}

#[test]
fn stats_round_trips_and_answers_while_draining() {
    let _s = serial();
    let _rec = Recording::start();
    let server = start(ServeConfig::default());
    let text = textfmt::to_text(&bench_graphs::ewf());

    let mut c = Client::connect(server.addr()).expect("connect");
    let before = c.stats().expect("stats before load");
    hls_obs::export::validate_json(&before).expect("stats body must be strict JSON");

    let a = c.schedule(&text, &RequestOpts::default()).expect("schedule");
    assert_ne!(a.trace, 0, "an OK line must carry a trace id");

    let after = c.stats().expect("stats after load");
    hls_obs::export::validate_json(&after).expect("stats body must be strict JSON");
    assert!(counter(&after, "serve_requests") > counter(&before, "serve_requests"));
    assert!(counter(&after, "serve_completed") > counter(&before, "serve_completed"));
    assert!(counter(&after, "stats_queries") > counter(&before, "stats_queries"));

    // STATS is answered inline by the connection thread, so the probe
    // keeps working on an existing connection even while the daemon
    // refuses new scheduling work.
    server.drain();
    let draining = c.stats().expect("stats while draining");
    hls_obs::export::validate_json(&draining).expect("stats body must be strict JSON");
    server.shutdown(Duration::from_secs(10));
}

#[test]
fn stats_snapshots_stay_consistent_under_concurrent_load() {
    let _s = serial();
    let _rec = Recording::start();
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let text = textfmt::to_text(&bench_graphs::ewf());

    let mut probe = Client::connect(server.addr()).expect("connect");
    let initial = probe.stats().expect("initial stats");
    let req0 = counter(&initial, "serve_requests");
    let done0 =
        counter(&initial, "serve_completed") + counter(&initial, "serve_rejected");

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;
    let answered = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = server.addr().clone();
                let text = text.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    let mut ok = 0u64;
                    for _ in 0..PER_CLIENT {
                        // Cache on: the first request schedules, the
                        // rest hit — sustained traffic without a
                        // sustained flow bill.
                        match c.schedule(&text, &RequestOpts::default()) {
                            Ok(a) => {
                                assert_ne!(a.trace, 0);
                                ok += 1;
                            }
                            Err(e) => panic!("load request failed: {e}"),
                        }
                    }
                    ok
                })
            })
            .collect();

        // Poll STATS concurrently with the load: every body must be
        // strict JSON and the request counter must be monotone — a
        // torn or rolled-back snapshot fails here.
        let mut c = Client::connect(server.addr()).expect("connect");
        let mut last = req0;
        for _ in 0..20 {
            let body = c.stats().expect("stats under load");
            hls_obs::export::validate_json(&body).expect("stats body must be strict JSON");
            let now = counter(&body, "serve_requests");
            assert!(now >= last, "serve_requests went backwards: {now} < {last}");
            last = now;
            std::thread::sleep(Duration::from_millis(2));
        }

        workers.into_iter().map(|w| w.join().expect("client thread")).sum::<u64>()
    });
    assert_eq!(answered, (CLIENTS * PER_CLIENT) as u64);

    // Quiesced: every admitted request is accounted exactly once.
    let fin = probe.stats().expect("final stats");
    assert_eq!(
        counter(&fin, "serve_requests") - req0,
        answered,
        "every request counted exactly once"
    );
    assert_eq!(
        counter(&fin, "serve_completed") + counter(&fin, "serve_rejected") - done0,
        answered,
        "every request resolved exactly once"
    );
    server.shutdown(Duration::from_secs(10));
}

/// Sends one raw line on a fresh TCP connection and returns the
/// daemon's one-line answer.
fn raw_exchange(addr: &BindAddr, line: &str) -> String {
    let BindAddr::Tcp(a) = addr else {
        panic!("raw exchange needs a TCP address, got {addr}")
    };
    let mut s = TcpStream::connect(a.as_str()).expect("connect");
    s.write_all(line.as_bytes()).expect("write");
    let mut reply = String::new();
    BufReader::new(s).read_line(&mut reply).expect("read");
    reply
}

#[test]
fn stats_agrees_with_the_server_ledger_with_recording_off() {
    let _s = serial();
    hls_obs::set_enabled(false);
    let server = start(ServeConfig {
        max_request_bytes: 4096,
        ..ServeConfig::default()
    });
    let ewf = textfmt::to_text(&bench_graphs::ewf());

    // Recording off: a cold answer, then its cache hit.
    let mut a = Client::connect(server.addr()).expect("connect");
    let cold = a.schedule(&ewf, &RequestOpts::default()).expect("cold");
    assert_eq!(cold.cache, CacheStatus::Miss);
    let hit = a.schedule(&ewf, &RequestOpts::default()).expect("hit");
    assert_eq!(hit.cache, CacheStatus::Hit);
    drop(a);

    // Recording on for exactly one connection: an uncached answer.
    {
        let _rec = Recording::start();
        let mut b = Client::connect(server.addr()).expect("connect");
        let nocache = RequestOpts {
            nocache: true,
            ..RequestOpts::default()
        };
        let hal = textfmt::to_text(&bench_graphs::hal());
        b.schedule(&hal, &nocache).expect("nocache");
    }

    // Recording off again: an oversized declaration and a malformed
    // header, each refused on its own connection.
    let mut c = Client::connect(server.addr()).expect("connect");
    match c.schedule(&"x".repeat(8192), &RequestOpts::default()) {
        Err(ClientError::Rejected(r)) => assert_eq!(r.kind, RejectKind::TooLarge),
        other => panic!("expected a toolarge rejection, got {other:?}"),
    }
    drop(c);
    let reply = raw_exchange(server.addr(), "REQ zorp\n");
    assert!(reply.starts_with("ERR ") && reply.contains("kind=malformed"), "{reply}");

    // Quiesce: the probe's connection is the only one left open and
    // nothing is queued or running.
    let mut probe = Client::connect(server.addr()).expect("connect");
    let gave_up = Instant::now() + Duration::from_secs(10);
    while (server.stats().connections, server.pending()) != (1, 0) {
        assert!(Instant::now() < gave_up, "never quiesced: {:?}", server.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
    let json = probe.stats().expect("stats");
    hls_obs::export::validate_json(&json).expect("stats body must be strict JSON");
    let stats = server.stats();
    for (key, value) in stats.fields() {
        assert_eq!(counter(&json, key), value, "STATS `{key}` vs Server::stats(): {json}");
    }
    assert_eq!((stats.connections, stats.queue_depth, stats.in_flight), (1, 0, 0));
    assert_eq!((stats.received, stats.completed, stats.cache_hits), (4, 3, 1));
    assert_eq!((stats.toolarge, stats.malformed, stats.rejected()), (1, 1, 2));
    assert_eq!(stats.stats_queries, 1);
    server.shutdown(Duration::from_secs(10));
}

#[test]
fn flight_recorder_captures_an_injected_panic() {
    let _s = serial();
    hls_obs::flight::clear_last_flight();
    // Panic on the very first commit of every `serve:`-scoped run:
    // whichever layer contains it (strategy worker, ladder rung, or
    // the serve worker's own unwind boundary), the post-mortem hook
    // fires before the answer goes out.
    let guard = arm(FaultPlan::panic_at(1).in_runs_prefixed("serve:"));
    let server = start(ServeConfig::default());
    let text = textfmt::to_text(&bench_graphs::ewf());

    let mut c = Client::connect(server.addr()).expect("connect");
    // Contained either way: a degraded answer or a typed rejection.
    let _ = c.schedule(
        &text,
        &RequestOpts {
            nocache: true,
            ..RequestOpts::default()
        },
    );
    drop(guard);

    let flight = hls_obs::flight::last_flight().expect("a panic must leave a flight dump");
    hls_obs::export::validate_json(&flight).expect("flight dump must be strict JSON");
    assert!(
        flight.contains("poisoned") || flight.contains("panicked"),
        "flight dump names the failure: {flight}"
    );
    hls_obs::flight::clear_last_flight();
    server.shutdown(Duration::from_secs(10));
}
