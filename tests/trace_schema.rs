//! Schema checks for the trace exporters: every JSONL record and the
//! Chrome trace document must be well-formed JSON with the advertised
//! keys, validated with the crate's own recursive-descent checker (the
//! build has no serde). CI runs these alongside the `trace-smoke` step
//! that produces the real artifacts.

use tossa::bench::runner::run_suite_each_traced;
use tossa::bench::suites::{paper_examples, Suite};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::Experiment;
use tossa::ir::machine::Machine;
use tossa::ir::parse::parse_function;
use tossa::regalloc::{allocate, AllocOptions};
use tossa::trace::{capture, chrome_trace, jsonl_record, validate_json, Counter, TraceData};

fn traced_suite() -> Vec<(String, TraceData)> {
    let suite = Suite {
        name: "example1-8",
        functions: paper_examples::examples(),
    };
    run_suite_each_traced(
        &suite,
        Experiment::LphiAbiC,
        &CoalesceOptions::default(),
        false,
    )
    .into_iter()
    .enumerate()
    .map(|(k, (_, trace))| (suite.functions[k].func.name.clone(), trace))
    .collect()
}

#[test]
fn jsonl_records_are_valid_and_complete() {
    let traces = traced_suite();
    assert!(!traces.is_empty());
    for (func, trace) in &traces {
        let line = jsonl_record(func, "LphiAbiC", trace);
        assert!(!line.contains('\n'), "one record per line: {line}");
        validate_json(&line).unwrap_or_else(|e| panic!("{func}: {e}\n{line}"));
        assert!(
            line.contains("\"schema\": \"tossa-trace/1\""),
            "{func}: missing schema tag\n{line}"
        );
        for key in [
            "\"function\"",
            "\"experiment\"",
            "\"counters\"",
            "\"spans\"",
        ] {
            assert!(line.contains(key), "{func}: missing {key}\n{line}");
        }
        // The counter object is total: every counter key appears even
        // when zero, so downstream columnar readers never see holes.
        for c in Counter::ALL.iter() {
            assert!(
                line.contains(&format!("\"{}\":", c.name())),
                "{func}: missing counter key {}\n{line}",
                c.name()
            );
        }
    }
}

#[test]
fn chrome_trace_is_valid_trace_event_json() {
    let doc = chrome_trace(&traced_suite());
    validate_json(&doc).unwrap_or_else(|e| panic!("{e}"));
    assert!(doc.contains("\"traceEvents\""));
    // Complete events carry phase, timestamp, duration, pid and tid.
    for key in [
        "\"ph\": \"X\"",
        "\"ts\":",
        "\"dur\":",
        "\"pid\":",
        "\"tid\":",
    ] {
        assert!(doc.contains(key), "missing {key}");
    }
}

/// The allocator's phases are traced as children of its `alloc` span,
/// so a Chrome trace attributes allocation time by phase: interval and
/// round analyses, the assignment engine, spill rewriting (once per
/// failed round), verification and the physical rewrite.
#[test]
fn allocation_phases_nest_under_the_alloc_span() {
    // 24 simultaneously live values against 20 allocatable registers:
    // at least one spill round before the assignment succeeds.
    let mut text = String::from("func @hp {\nentry:\n  %i = input\n");
    for k in 0..24 {
        text.push_str(&format!("  %v{k} = addi %i, {k}\n"));
    }
    text.push_str("  %s = make 0\n");
    for k in 0..24 {
        text.push_str(&format!("  %s = add %s, %v{k}\n"));
    }
    text.push_str("  ret %s\n}\n");
    let mut f = parse_function(&text, &Machine::dsp32()).unwrap();
    let (stats, trace) = capture(|| allocate(&mut f, &AllocOptions::default()).unwrap());
    assert!(stats.rounds >= 2, "{stats:?}");
    trace.check_well_nested().unwrap();
    let alloc: Vec<_> = trace.spans.iter().filter(|s| s.name == "alloc").collect();
    assert_eq!(alloc.len(), 1);
    let phase = |name: &str| -> Vec<_> {
        trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .inspect(|s| {
                assert_eq!(s.depth, alloc[0].depth + 1, "{name} must nest in alloc");
                assert!(
                    s.start_ns >= alloc[0].start_ns,
                    "{name} starts inside alloc"
                );
            })
            .collect()
    };
    let rounds = stats.rounds;
    assert_eq!(phase("alloc_intervals").len(), rounds);
    assert_eq!(phase("alloc_scan").len(), rounds);
    assert_eq!(phase("alloc_spill").len(), rounds - 1);
    assert_eq!(phase("alloc_verify").len(), 1);
    assert_eq!(phase("alloc_finish").len(), 1);
    let doc = chrome_trace(&[("hp".to_string(), trace)]);
    validate_json(&doc).unwrap_or_else(|e| panic!("{e}"));
    assert!(doc.contains("\"name\": \"alloc_spill\""), "{doc}");
}

#[test]
fn validator_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "{\"a\": }",
        "[1, 2,]",
        "{\"a\": 1} trailing",
        "{\"a\": \"unterminated}",
        "nul",
    ] {
        assert!(validate_json(bad).is_err(), "accepted malformed: {bad:?}");
    }
}
