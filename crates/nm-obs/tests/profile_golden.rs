//! Golden-file tests for the kernel-profile pipeline: the deterministic
//! dump a profiled train run writes, joined with the measured
//! `obs.profile.*` events from its trace, must render to byte-identical
//! `nmcdr obs profile` report and `--compare` verdict text. Both
//! renderers are deliberately deterministic (BTreeMap ordering, fixed
//! column widths, self-time-sorted rows with kind tiebreak), so any
//! diff here is a real output-format change — regenerate with
//!
//! ```text
//! nmcdr train --scenario music-movie --scale 0.004 --dim 8 --epochs 1 \
//!   --seed 7 --trace-out trace_full.jsonl \
//!   --profile-out crates/nm-obs/tests/fixtures/profile_dump.jsonl
//! { head -1 trace_full.jsonl; grep '"obs.profile' trace_full.jsonl; } \
//!   > crates/nm-obs/tests/fixtures/profile_trace.jsonl
//! # profile_old_dump.jsonl is profile_dump.jsonl with matmul's
//! # fwd_flops hand-corrupted (prefix "99") to seed a counter drift.
//! nmcdr obs profile --profile .../profile_dump.jsonl \
//!   --trace .../profile_trace.jsonl > .../profile_report.golden
//! # verdict goldens: --compare against profile_dump.jsonl (pass) and
//! # profile_old_dump.jsonl (fail), same --trace/--compare-trace.
//! ```
//!
//! and review the diff like any other golden update.

use nm_obs::parse_dump;
use nm_obs::profile::{compare, parse_trace_timings, render_report, render_verdict};

const DUMP: &str = include_str!("fixtures/profile_dump.jsonl");
const OLD_DUMP: &str = include_str!("fixtures/profile_old_dump.jsonl");
const TRACE: &str = include_str!("fixtures/profile_trace.jsonl");
const GOLDEN_REPORT: &str = include_str!("fixtures/profile_report.golden");
const GOLDEN_PASS: &str = include_str!("fixtures/profile_verdict_pass.golden");
const GOLDEN_FAIL: &str = include_str!("fixtures/profile_verdict_fail.golden");

#[test]
fn fixture_renders_the_golden_report_byte_for_byte() {
    let dump = parse_dump(DUMP).expect("fixture dump parses under the strict schema");
    let (timings, peaks) = parse_trace_timings(TRACE).expect("fixture trace parses");
    assert!(
        peaks.is_some(),
        "fixture trace must carry an obs.profile.peaks event"
    );
    assert_eq!(
        render_report(&dump, &timings, peaks.as_ref()),
        GOLDEN_REPORT
    );
}

#[test]
fn self_compare_renders_the_golden_pass_verdict_byte_for_byte() {
    let dump = parse_dump(DUMP).expect("dump parses");
    let (timings, _) = parse_trace_timings(TRACE).expect("trace parses");
    let diff = compare(&dump, &timings, &dump, &timings);
    assert!(!diff.failed(), "a run compared against itself must pass");
    assert_eq!(render_verdict(&diff), GOLDEN_PASS);
}

#[test]
fn seeded_counter_drift_renders_the_golden_fail_verdict_byte_for_byte() {
    let dump = parse_dump(DUMP).expect("dump parses");
    let old = parse_dump(OLD_DUMP).expect("seeded-drift dump parses");
    let (timings, _) = parse_trace_timings(TRACE).expect("trace parses");
    let diff = compare(&dump, &timings, &old, &timings);
    assert!(
        diff.failed(),
        "the seeded matmul fwd_flops drift must fail the gate"
    );
    assert_eq!(render_verdict(&diff), GOLDEN_FAIL);
}

#[test]
fn golden_report_agrees_with_the_fixture_dump() {
    // The report's top row must be the op with the largest measured
    // self time, and every op kind in the dump must appear — pin both
    // against the golden text itself so a hand-edited golden can't
    // silently drop rows or reorder the roofline table.
    let dump = parse_dump(DUMP).expect("dump parses");
    let (timings, _) = parse_trace_timings(TRACE).expect("trace parses");
    let top = timings
        .iter()
        .max_by_key(|(_, t)| t.fwd_ns + t.bwd_ns)
        .map(|(k, _)| k.clone())
        .expect("fixture has timed ops");
    let first_row = GOLDEN_REPORT
        .lines()
        .find(|l| !l.starts_with("machine peaks") && !l.starts_with("op "))
        .expect("report has data rows");
    assert!(
        first_row.starts_with(&top),
        "top report row {first_row:?} must be the hottest op '{top}'"
    );
    for op in &dump.ops {
        assert!(
            GOLDEN_REPORT.lines().any(|l| l.starts_with(&op.kind)),
            "op kind '{}' from the dump is missing from the report",
            op.kind
        );
    }
}

#[test]
fn golden_fail_verdict_names_the_seeded_drift() {
    assert!(
        GOLDEN_FAIL.contains("counters: 1 drift(s)"),
        "fail golden must report exactly the one seeded counter drift"
    );
    assert!(
        GOLDEN_FAIL.contains("matmul: fwd_flops"),
        "fail golden must attribute the drift to matmul fwd_flops"
    );
    assert!(GOLDEN_FAIL.trim_end().ends_with("profile compare: FAIL"));
    assert!(GOLDEN_PASS.trim_end().ends_with("profile compare: PASS"));
}
