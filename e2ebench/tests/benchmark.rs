//! The benchmark's own checks: its composed crash path agrees with the
//! chaos crate's, its outputs repeat, and its metric names are the
//! ones `BENCHMARK.json` declares.

use afraid::driver::run_trace;
use afraid_chaos::{cut_points, Scenario};
use afraid_e2ebench::measure::{
    digest, end_to_end, json_per_layer_names, per_layer, per_layer_names, END_TO_END,
};
use afraid_e2ebench::spans::Recorder;
use afraid_e2ebench::workloads::{
    cut_verdict, guarded, run_pass, setup, LayerSecs, Scale, Workload,
};
use afraid_sim::time::SimDuration;

/// Small enough for a test, large enough that every layer does work.
const SMALL: Scale = Scale {
    grid_secs: 60,
    grid_traces: 2,
    chaos_secs: 1,
    cuts_per_scenario: 6,
    fault_secs: 120,
};

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[test]
fn composed_cut_matches_chaos_run_cut() {
    let rec = Recorder::new(false);
    for sc in Scenario::ALL {
        let spec = sc.spec(SimDuration::from_secs(2), 11);
        let trace = spec.trace();
        let total = run_trace(&spec.cfg, &trace, &spec.opts)
            .metrics
            .events_processed;
        for cut in cut_points(total, 7) {
            let mut secs = LayerSecs::default();
            let ours = cut_verdict(&rec, None, None, &spec, &trace, cut, &mut secs);
            assert_eq!(ours, spec.run_cut(&trace, cut), "{} cut {cut}", sc.name());
        }
    }
}

#[test]
fn digest_repeats_for_a_seed_and_across_worker_counts() {
    let rec = Recorder::new(false);
    for w in [Workload::PaperGrid, Workload::CrashCuts] {
        let one = digest(&run_pass(&setup(w, SMALL, 5, 1, &rec), 1, &rec).ops);
        let again = digest(&run_pass(&setup(w, SMALL, 5, 1, &rec), 1, &rec).ops);
        let wide = digest(&run_pass(&setup(w, SMALL, 5, nproc(), &rec), nproc().max(2), &rec).ops);
        let other = digest(&run_pass(&setup(w, SMALL, 6, 1, &rec), 1, &rec).ops);
        assert_eq!(one, again, "{}: same seed, same digest", w.name());
        assert_eq!(one, wide, "{}: 1 vs {} workers", w.name(), nproc().max(2));
        assert_ne!(one, other, "{}: the seed must reach the inputs", w.name());
    }
}

#[test]
fn traced_pass_matches_untraced_and_records_spans() {
    let untraced = Recorder::new(false);
    let traced = Recorder::new(true);
    let prep = setup(Workload::FaultRebuild, SMALL, 3, 1, &untraced);
    let a = run_pass(&prep, 1, &untraced);
    let b = run_pass(&prep, 1, &traced);
    assert_eq!(digest(&a.ops), digest(&b.ops));
    let spans = traced.spans();
    assert!(spans.iter().any(|s| s.name == "driver.run_trace"));
    assert!(spans
        .iter()
        .all(|s| s.name == "pool.pass" || s.parent.is_some()));
}

#[test]
fn guarded_fails_only_the_panicking_op() {
    let err = guarded(|| -> u32 { panic!("unrepairable probability out of range: 1.5") })
        .expect_err("panic is caught");
    assert!(err.message.contains("1.5"));
    assert!(err.known_defect().is_some_and(|d| d.starts_with("(b)")));
    assert_eq!(guarded(|| 7), Ok(7));
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    let layers: Vec<String> = json_per_layer_names().into_iter().map(|(n, _)| n).collect();
    let mut all: Vec<&str> = e2e.clone();
    all.extend(layers.iter().map(String::as_str));
    all.extend(Workload::ALL.iter().map(|w| w.name()));
    for n in &all {
        assert!(well_formed(n), "bad metric name {n:?}");
        assert!(n.len() <= 64, "name too long: {n}");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "names must be unique");

    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json next to e2ebench/");
    for n in &all {
        assert!(
            json.contains(&format!("\"name\": \"{n}\"")),
            "{n} missing from BENCHMARK.json"
        );
    }
    assert_eq!(json.matches("\"name\":").count(), all.len());
}

#[test]
fn every_metric_is_reported_and_finite() {
    let rec = Recorder::new(true);
    for w in Workload::ALL {
        let prep = setup(w, SMALL, 9, 1, &rec);
        let passes = vec![run_pass(&prep, 1, &rec)];
        let e2e = end_to_end(&prep, 0.1, &passes, 1.0);
        let layers = per_layer(&prep, &[0.1], &passes, &rec.spans(), 0.0);
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(layers.len(), per_layer_names().len());
        for m in e2e.iter().chain(&layers) {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn pass_count_depends_on_the_arguments_alone() {
    for w in Workload::ALL {
        assert_eq!(w.passes_for(0.001), 1, "{}: at least one pass", w.name());
        let n = w.passes_for(30.0);
        assert_eq!(n, w.passes_for(30.0), "{}", w.name());
        let filled = n as f64 * w.nominal_pass_s();
        assert!(
            (filled - 30.0).abs() <= w.nominal_pass_s(),
            "{}: {n} passes",
            w.name()
        );
    }
}
