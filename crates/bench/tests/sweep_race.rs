//! Two sweep *processes* racing one grid on one cache directory: every
//! point is claimed before it is simulated, so the pair simulates each
//! point exactly once between them, both produce the same figure, and
//! nothing is left behind.

use std::process::{Command, Stdio};
use svr_sim::json::Json;

fn field(doc: &Json, name: &str) -> u64 {
    doc.get("sweep")
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("sweep.{name} missing"))
}

#[test]
fn two_racing_sweeps_simulate_each_point_once() {
    let root = std::env::temp_dir().join(format!("svr-sweep-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cache = root.join("cache");
    std::fs::create_dir_all(&cache).expect("temp dir");

    let spawn = |name: &str| {
        Command::new(env!("CARGO_BIN_EXE_fig11_cpi"))
            .args(["--scale", "tiny", "--json"])
            .arg(root.join(name))
            .env("SVR_CACHE_DIR", &cache)
            .env("SVR_CRASH_DIR", root.join("crash"))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fig11_cpi")
    };
    let (a, b) = (spawn("a.json"), spawn("b.json"));
    for (name, child) in [("a", a), ("b", b)] {
        let out = child.wait_with_output().expect("wait");
        assert!(
            out.status.success(),
            "run {name} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let load = |name: &str| {
        let text = std::fs::read_to_string(root.join(name)).expect("figure JSON written");
        Json::parse(&text).expect("figure JSON parses")
    };
    let (a, b) = (load("a.json"), load("b.json"));

    // Exactly once across both processes, and every point resolved by each.
    let points = field(&a, "points");
    assert_eq!(points, 264, "the fig11 grid: 33 workloads x 8 configs");
    assert_eq!(field(&b, "points"), points);
    assert_eq!(
        field(&a, "simulated") + field(&b, "simulated"),
        points,
        "two racing sweeps must simulate each point once between them"
    );
    for doc in [&a, &b] {
        assert_eq!(field(doc, "simulated") + field(doc, "cache_hits"), points);
        assert_eq!(field(doc, "failed"), 0);
    }
    // Where a result came from never changes the figure.
    assert_eq!(a.get("sections"), b.get("sections"), "figures diverged");

    // No claim, staging or quarantine residue.
    let residue: Vec<String> = std::fs::read_dir(&cache)
        .expect("cache dir")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".claim") || n.contains(".tmp.") || n == "quarantine")
        .collect();
    assert!(residue.is_empty(), "residue left in the cache: {residue:?}");
    assert!(
        !root.join("crash").exists(),
        "no job failed, so no crash dumps"
    );
    let _ = std::fs::remove_dir_all(&root);
}
