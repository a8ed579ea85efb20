//! Pins the checked-in `BENCH_pr12.json` claims: the incremental
//! `Resource_killed` state changes how much interference work the
//! coalescer does, never what it decides. Every deterministic cell —
//! move counts, weighted counts, allocation stats, non-advisory trace
//! counters — equals the `BENCH_pr10.json` baseline, with one
//! exception: `counter.interfere_class1` counts positive Class-1 kill
//! checks *performed*, and killed sets are no longer recomputed at every
//! confluence point, so it may only drop. The snapshot is regenerated
//! with `cargo run --release -p tossa-bench --bin perf`.

use std::collections::BTreeMap;

use tossa::trace::json::{parse_json, Json};

/// Cache-policy counters exempted from cell identity (see bench_pr7.rs
/// and `bench-diff` — advisory, policy-dependent).
const ADVISORY: [&str; 2] = [
    "counter.analysis_cache_hits",
    "counter.analysis_cache_misses",
];

/// The one counter allowed to move, and only downwards.
const WORK_COUNTER: &str = "counter.interfere_class1";

fn snapshot(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    parse_json(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

/// Every deterministic scalar of every (suite × experiment) cell,
/// excluding timing and advisory counters.
fn deterministic_cells(doc: &Json) -> BTreeMap<(String, String), BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    for s in doc.get("suites").and_then(Json::as_arr).unwrap_or_default() {
        let suite = s.get("suite").and_then(Json::as_str).unwrap_or("?");
        for e in s
            .get("experiments")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let exp = e.get("experiment").and_then(Json::as_str).unwrap_or("?");
            let mut fields = BTreeMap::new();
            for key in ["moves", "weighted"] {
                if let Some(v) = e.get(key).and_then(Json::as_u64) {
                    fields.insert(key.to_string(), v);
                }
            }
            for (group, prefix) in [("alloc", "alloc."), ("counters", "counter.")] {
                if let Some(obj) = e.get(group).and_then(Json::as_obj) {
                    for (k, v) in obj {
                        if let Some(v) = v.as_u64() {
                            let field = format!("{prefix}{k}");
                            if !ADVISORY.contains(&field.as_str()) {
                                fields.insert(field, v);
                            }
                        }
                    }
                }
            }
            out.insert((suite.to_string(), exp.to_string()), fields);
        }
    }
    out
}

#[test]
fn snapshot_is_well_formed_v5() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_pr12.json");
    let text = std::fs::read_to_string(path).unwrap();
    tossa::trace::validate_json(&text).expect("BENCH_pr12.json is well-formed JSON");
    assert!(
        text.contains("\"schema\": \"tossa-bench-trajectory/5\""),
        "snapshot must use the v5 schema"
    );
}

/// Same decisions: every deterministic cell equals BENCH_pr10.json,
/// except the Class-1 work counter, which must not exceed it anywhere
/// (a lazily computed killed set is computed at most as often as the
/// per-block recomputation did).
#[test]
fn deterministic_cells_match_pr10_with_class1_work_only_dropping() {
    let old = deterministic_cells(&snapshot("BENCH_pr10.json"));
    let new = deterministic_cells(&snapshot("BENCH_pr12.json"));
    assert_eq!(
        old.keys().collect::<Vec<_>>(),
        new.keys().collect::<Vec<_>>(),
        "suite × experiment matrix changed shape"
    );
    let mut dropped = 0;
    for (key, o) in &old {
        let n = &new[key];
        assert_eq!(
            o.keys().collect::<Vec<_>>(),
            n.keys().collect::<Vec<_>>(),
            "{}/{}: field set changed",
            key.0,
            key.1
        );
        for (field, &ov) in o {
            let nv = n[field];
            if field == WORK_COUNTER {
                assert!(nv <= ov, "{}/{}: {field} rose {ov} -> {nv}", key.0, key.1);
                dropped += usize::from(nv < ov);
            } else {
                assert_eq!(
                    ov, nv,
                    "{}/{}: {field} drifted vs BENCH_pr10.json",
                    key.0, key.1
                );
            }
        }
    }
    assert!(
        dropped > 0,
        "the incremental killed sets should save Class-1 checks somewhere"
    );
}

/// The PR 9 headline survives: zero spilling anywhere at trajectory
/// scale, so `spill_move_total` stays the pure parallel-copy count.
#[test]
fn zero_spilling_carries_over() {
    let cells = deterministic_cells(&snapshot("BENCH_pr12.json"));
    assert!(!cells.is_empty());
    for (key, c) in &cells {
        for field in ["alloc.spilled_vars", "alloc.reloads", "alloc.stores"] {
            assert_eq!(c[field], 0, "{}/{}: {field} must stay zero", key.0, key.1);
        }
        assert_eq!(
            c["alloc.spill_move_total"], c["alloc.moves_after"],
            "{}/{}: with zero spill traffic the total must be the move count",
            key.0, key.1
        );
    }
}

/// The throughput object stays self-consistent, with monotone
/// compile-latency percentiles.
#[test]
fn snapshot_carries_throughput_with_latency_percentiles() {
    let doc = snapshot("BENCH_pr12.json");
    let t = doc
        .get("throughput")
        .unwrap_or_else(|| panic!("BENCH_pr12.json lacks the throughput object"));
    let fps = t
        .get("functions_per_sec")
        .and_then(Json::as_f64)
        .expect("functions_per_sec is a number");
    let functions = t.get("functions").and_then(Json::as_u64).unwrap_or(0);
    let wall_ns = t.get("wall_ns").and_then(Json::as_u64).unwrap_or(0);
    assert!(fps > 0.0 && functions > 0 && wall_ns > 0);
    let recomputed = functions as f64 * 1e9 / wall_ns as f64;
    assert!(
        (recomputed - fps).abs() / recomputed < 0.01,
        "functions_per_sec {fps} inconsistent with {functions} fns / {wall_ns} ns"
    );
    let pick = |key: &str| {
        t.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("throughput lacks {key}"))
    };
    let (p50, p90, p99) = (
        pick("latency_p50_ns"),
        pick("latency_p90_ns"),
        pick("latency_p99_ns"),
    );
    assert!(p50 > 0 && p50 <= p90 && p90 <= p99, "{p50} / {p90} / {p99}");
}
