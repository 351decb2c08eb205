//! End-to-end service tests: a real daemon on a unix socket (and HTTP),
//! overlapping grid queries from concurrent clients, and the core
//! guarantee — warm-path results bit-identical to a direct `run_matrix`
//! sweep.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use aurora_bench::harness::run_matrix;
use aurora_serve::json::Json;
use aurora_serve::proto::{CellResult, QueryRequest, ResponseLine};
use aurora_serve::{client, server, Engine, ResultStore};
use aurora_workloads::workload_by_name;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aurora-serve-e2e-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Two overlapping grid queries race on a fresh daemon; afterwards the
/// union grid is fully memoised and a repeat query simulates nothing.
/// Then the warm cells are checked bit-identical against run_matrix.
#[test]
fn overlapping_queries_memoise_and_match_run_matrix() {
    let dir = scratch("overlap");
    let socket = dir.join("aurora.sock");
    fs::create_dir_all(&dir).expect("scratch dir");
    let engine = Arc::new(Engine::new(
        ResultStore::open(&dir.join("store")).expect("open store"),
    ));
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).expect("bind");

    // Query A: {baseline-single, baseline-dual} × {eqntott};
    // Query B: {baseline-dual, small-dual} × {eqntott, compress}.
    // They overlap on the (baseline-dual, eqntott) cell.
    let req_a = r#"{"configs": [{"model": "baseline", "issue": "single"},
                                {"model": "baseline", "issue": "dual"}],
                    "workloads": ["eqntott"], "scale": "test", "mode": "block"}"#;
    let req_b = r#"{"configs": [{"model": "baseline", "issue": "dual"},
                                {"model": "small", "issue": "dual"}],
                    "workloads": ["eqntott", "compress"], "scale": "test", "mode": "block"}"#;

    let run_query = |req: &str| {
        let mut lines = Vec::new();
        client::query_unix(&socket, req, |l| lines.push(l.to_owned())).expect("query");
        lines
    };
    let (lines_a, lines_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_query(req_a));
        let b = scope.spawn(|| run_query(req_b));
        (a.join().expect("query A"), b.join().expect("query B"))
    });

    let summary = |lines: &[String]| {
        let last = Json::parse(lines.last().expect("lines")).expect("json");
        assert_eq!(last.get("type").and_then(Json::as_str), Some("summary"));
        (
            last.get("cells").and_then(Json::as_u64).unwrap(),
            last.get("memo_hits").and_then(Json::as_u64).unwrap(),
            last.get("simulated").and_then(Json::as_u64).unwrap(),
        )
    };
    let (cells_a, memo_a, sim_a) = summary(&lines_a);
    let (cells_b, memo_b, sim_b) = summary(&lines_b);
    assert_eq!(cells_a, 2);
    assert_eq!(cells_b, 4);
    assert_eq!(memo_a + sim_a, 2, "every A cell answered exactly once");
    assert_eq!(memo_b + sim_b, 4, "every B cell answered exactly once");
    // Cell lines precede the summary and carry stats objects.
    assert_eq!(lines_a.len() as u64, cells_a + 1);
    assert_eq!(lines_b.len() as u64, cells_b + 1);

    // The union grid (5 distinct cells) is now warm: repeats of both
    // queries must hit the memo for every cell and simulate nothing.
    for req in [req_a, req_b] {
        let lines = run_query(req);
        let (cells, memo, sim) = summary(&lines);
        assert_eq!(memo, cells, "warm repeat must be all memo hits");
        assert_eq!(sim, 0, "warm repeat must not re-simulate");
    }
    assert_eq!(engine.store().len(), 5, "five distinct cells memoised");

    // Bit-identity: execute query B warm at the engine level (full
    // SimStats, no JSON round trip) and compare against run_matrix.
    let req = QueryRequest::from_json_str(req_b).expect("parse");
    let configs = req.machine_configs().expect("resolve");
    let workloads: Vec<_> = req
        .workloads
        .iter()
        .map(|w| workload_by_name(w, req.scale).expect("workload"))
        .collect();
    let mut warm_cells = Vec::new();
    let summary = engine
        .execute(&req, &mut |line: &ResponseLine| {
            if let ResponseLine::Cell {
                config_index,
                workload,
                result: CellResult::Exact(stats),
                ..
            } = line
            {
                warm_cells.push((*config_index, workload.clone(), stats.clone()));
            }
        })
        .expect("warm execute");
    assert_eq!(summary.memo_hits, 4);
    assert_eq!(summary.simulated, 0);
    let direct = run_matrix(&configs, &workloads);
    assert_eq!(warm_cells.len(), 4);
    for (ci, wname, stats) in &warm_cells {
        let wi = req.workloads.iter().position(|w| w == wname).expect("wi");
        assert_eq!(
            stats, &direct[*ci][wi],
            "memoised stats must be bit-identical to run_matrix for config {ci} × {wname}"
        );
    }

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The store persists across daemon restarts: a second daemon on the
/// same directory answers the first daemon's cells from the memo.
#[test]
fn warm_cells_survive_daemon_restart() {
    let dir = scratch("restart");
    let socket = dir.join("aurora.sock");
    fs::create_dir_all(&dir).expect("scratch dir");
    let store_dir = dir.join("store");
    let req = r#"{"configs": [{"model": "small", "issue": "single"}],
                  "workloads": ["li"], "scale": "test", "mode": "block"}"#;

    let run_query = |socket: &std::path::Path| {
        let mut last = String::new();
        client::query_unix(socket, req, |l| last = l.to_owned()).expect("query");
        Json::parse(&last).expect("summary json")
    };

    let engine = Arc::new(Engine::new(ResultStore::open(&store_dir).expect("open")));
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).expect("bind");
    let cold = run_query(&socket);
    assert_eq!(cold.get("simulated").and_then(Json::as_u64), Some(1));
    handle.shutdown();
    drop(engine);

    let engine = Arc::new(Engine::new(ResultStore::open(&store_dir).expect("reopen")));
    assert_eq!(engine.store().len(), 1);
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).expect("rebind");
    let warm = run_query(&socket);
    assert_eq!(warm.get("memo_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(warm.get("simulated").and_then(Json::as_u64), Some(0));
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The HTTP transport: /health reports the store, /query streams the
/// same NDJSON the unix transport does, bad requests answer error lines.
#[test]
fn http_transport_serves_health_and_queries() {
    let dir = scratch("http");
    fs::create_dir_all(&dir).expect("scratch dir");
    let engine = Arc::new(Engine::new(
        ResultStore::open(&dir.join("store")).expect("open"),
    ));
    let (handle, addr) = server::spawn_http(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = addr.to_string();

    let health = client::health_http(&addr).expect("health");
    let health = Json::parse(&health).expect("health json");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("cells").and_then(Json::as_u64), Some(0));

    let mut lines = Vec::new();
    client::query_http(
        &addr,
        r#"{"configs": [{"model": "small", "issue": "dual"}],
            "workloads": ["ear"], "scale": "test", "mode": "sampled"}"#,
        |l| lines.push(l.to_owned()),
    )
    .expect("query");
    assert_eq!(lines.len(), 2, "one cell line plus the summary");
    let cell = Json::parse(&lines[0]).expect("cell json");
    assert_eq!(cell.get("type").and_then(Json::as_str), Some("cell"));
    let stats = cell.get("stats").expect("stats");
    assert!(stats.get("cpi").and_then(Json::as_f64).expect("cpi") > 0.5);
    assert!(stats.get("ci_half_width").and_then(Json::as_f64).is_some());

    // Unknown workloads and malformed JSON both answer an error line
    // (the connection stays usable for the next client either way).
    for bad in [
        r#"{"configs": [{}], "workloads": ["no-such-kernel"], "scale": "test"}"#,
        "this is not json",
    ] {
        let mut lines = Vec::new();
        client::query_http(&addr, bad, |l| lines.push(l.to_owned())).expect("send");
        assert_eq!(lines.len(), 1);
        assert_eq!(client::line_type(&lines[0]).as_deref(), Some("error"));
    }

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Detailed and block modes memoise separately but agree bit-for-bit on
/// statistics (the fingerprints in the cell lines match).
#[test]
fn detailed_and_block_modes_agree() {
    let dir = scratch("modes");
    let socket = dir.join("aurora.sock");
    fs::create_dir_all(&dir).expect("scratch dir");
    let engine = Arc::new(Engine::new(
        ResultStore::open(&dir.join("store")).expect("open"),
    ));
    let handle = server::spawn_unix(Arc::clone(&engine), &socket).expect("bind");

    // Returns (fingerprint, cells, memo_hits, simulated).
    let query = |mode: &str| {
        let req = format!(
            r#"{{"configs": [{{"model": "baseline", "issue": "dual"}}],
                 "workloads": ["eqntott"], "scale": "test", "mode": "{mode}"}}"#
        );
        let mut fp = String::new();
        let mut counts = (0, 0, 0);
        client::query_unix(&socket, &req, |l| {
            let v = Json::parse(l).expect("json");
            let count = |k: &str| v.get(k).and_then(Json::as_u64).expect("summary count");
            match v.get("type").and_then(Json::as_str) {
                Some("cell") => {
                    fp = v
                        .get("stats")
                        .and_then(|s| s.get("fingerprint"))
                        .and_then(Json::as_str)
                        .expect("fingerprint")
                        .to_owned();
                }
                Some("summary") => {
                    counts = (count("cells"), count("memo_hits"), count("simulated"))
                }
                _ => {}
            }
        })
        .expect("query");
        (fp, counts)
    };
    let (block_fp, (_, _, block_simulated)) = query("block");
    assert_eq!(block_simulated, 1, "the first exact query simulates");
    let (detailed_fp, (cells, memo_hits, simulated)) = query("detailed");
    assert_eq!(block_fp, detailed_fp, "modes must agree bit-for-bit");
    assert_eq!(memo_hits, cells, "detailed is answered from the block cell");
    assert_eq!(simulated, 0, "detailed must not simulate again");
    assert_eq!(engine.store().len(), 1, "exact modes share one memo cell");

    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
