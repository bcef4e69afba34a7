//! Structural checks for the recorded `bench_output.txt` artifact.
//!
//! The file is a hand-recorded bench transcript; nothing regenerates it
//! automatically, so it drifts. This module parses the artifact's structure
//! — `id  time: [lo mid hi]` estimate lines and `#` comment blocks — and the
//! `check_bench_output` binary fails CI's bench-smoke job when the recorded
//! file stops matching what the benches actually emit (missing groups,
//! malformed timings, or a stale hardware caveat).

/// One parsed `time: [lo mid hi]` estimate line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTiming {
    /// The benchmark id (first whitespace-delimited token of the line).
    pub id: String,
    /// Midpoint estimate in nanoseconds.
    pub mid_ns: f64,
}

/// Parsed view of a recorded bench transcript.
#[derive(Debug, Default)]
pub struct BenchReport {
    /// Every parsed timing, in file order.
    pub timings: Vec<BenchTiming>,
    /// Problems that make the artifact internally inconsistent.
    pub errors: Vec<String>,
}

/// Converts a magnitude suffix to nanoseconds.
fn to_ns(value: f64, unit: &str) -> Option<f64> {
    match unit {
        "ps" => Some(value * 1e-3),
        "ns" => Some(value),
        "µs" | "us" => Some(value * 1e3),
        "ms" => Some(value * 1e6),
        "s" => Some(value * 1e9),
        _ => None,
    }
}

/// Parses one `<id>  time: [lo u mid u hi u]  (...)` line; `None` when the
/// line has no `time:` marker (comments, blanks).
fn parse_time_line(line: &str) -> Option<Result<BenchTiming, String>> {
    let marker = line.find("time:")?;
    let id = line[..marker].trim();
    if id.is_empty() {
        return Some(Err(format!("timing with no benchmark id: {line:?}")));
    }
    let rest = line[marker + "time:".len()..].trim();
    let open = match rest.strip_prefix('[') {
        Some(open) => open,
        None => return Some(Err(format!("unbracketed time line: {line:?}"))),
    };
    let inner = match open.split(']').next() {
        Some(inner) => inner,
        None => return Some(Err(format!("unterminated time bracket: {line:?}"))),
    };
    let parts: Vec<&str> = inner.split_whitespace().collect();
    if parts.len() != 6 {
        return Some(Err(format!("expected 3 value/unit pairs: {line:?}")));
    }
    let mid: f64 = match parts[2].parse() {
        Ok(v) => v,
        Err(_) => return Some(Err(format!("bad midpoint {:?} in {line:?}", parts[2]))),
    };
    match to_ns(mid, parts[3]) {
        Some(mid_ns) => Some(Ok(BenchTiming {
            id: id.to_owned(),
            mid_ns,
        })),
        None => Some(Err(format!("unknown unit {:?} in {line:?}", parts[3]))),
    }
}

/// Parses a recorded bench transcript. Parse failures land in
/// [`BenchReport::errors`] rather than panicking, so the checker reports
/// every problem at once.
pub fn parse_bench_output(text: &str) -> BenchReport {
    let mut report = BenchReport::default();
    for line in text.lines() {
        if line.trim_start().starts_with('#') {
            continue;
        }
        if let Some(parsed) = parse_time_line(line) {
            match parsed {
                Ok(t) => report.timings.push(t),
                Err(e) => report.errors.push(e),
            }
        }
    }
    report
}

/// Bench groups the recorded artifact must cover.
pub const REQUIRED_GROUPS: [&str; 12] = [
    "subset_sum_true_answer",
    "count_range_100k",
    "select_range_100k",
    "counting_engine_cached",
    "workload_planning",
    "shard_scaling",
    "storage_scan",
    "incremental_scan",
    "lint_cost",
    "service_throughput",
    "obs_overhead",
    "simplex_lp_decode_shape",
];

/// Validates a recorded transcript: all `time:` lines parse, every required
/// group appears, timings are positive, and no stale single-core caveat
/// survives (the recording host's parallelism must be stated inline
/// instead). Returns the list of failures, empty on success.
pub fn check_bench_output(text: &str) -> Vec<String> {
    let report = parse_bench_output(text);
    let mut failures = report.errors;
    if report.timings.is_empty() {
        failures.push("no `time:` lines parsed".to_owned());
    }
    for t in &report.timings {
        if !(t.mid_ns > 0.0) {
            failures.push(format!("non-positive timing for {}", t.id));
        }
    }
    for group in REQUIRED_GROUPS {
        if !report.timings.iter().any(|t| t.id.starts_with(group)) {
            failures.push(format!("missing bench group {group}"));
        }
    }
    if text.contains("pinned to a SINGLE CPU core") {
        failures.push(
            "stale caveat: the artifact claims the host was pinned to one core; \
             state the recording host's parallelism and point at the CI bench \
             artifact for the multi-core curve instead"
                .to_owned(),
        );
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_inline_time_lines() {
        let text = "\
# comment with time: [not parsed]
subset_sum_true_answer_10k   time:   [120.62 ns 122.37 ns 198.69 ns]  (20 samples x 44091 iters)
shard_scaling/100k/2_threads time:   [1.1545 ms 1.1959 ms 1.4618 ms]  (10 samples x 1 iters)
";
        let r = parse_bench_output(text);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.timings.len(), 2);
        assert_eq!(r.timings[0].id, "subset_sum_true_answer_10k");
        assert!((r.timings[0].mid_ns - 122.37).abs() < 1e-9);
        assert_eq!(r.timings[1].id, "shard_scaling/100k/2_threads");
        assert!((r.timings[1].mid_ns - 1.1959e6).abs() < 1e-3);
    }

    #[test]
    fn malformed_lines_are_reported_not_skipped() {
        let r = parse_bench_output("bench_x time: [garbage]\n");
        assert_eq!(r.timings.len(), 0);
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
    }

    fn minimal_valid() -> String {
        REQUIRED_GROUPS
            .iter()
            .map(|g| format!("{g}/case  time: [1.0 ns 1.0 ns 1.0 ns]\n"))
            .collect()
    }

    #[test]
    fn stale_single_core_caveat_fails_the_check() {
        let mut text = minimal_valid();
        assert!(check_bench_output(&text).is_empty());
        text.push_str("# NOTE: host pinned to a SINGLE CPU core\n");
        let failures = check_bench_output(&text);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("stale caveat"));
    }

    #[test]
    fn missing_group_is_reported() {
        let failures = check_bench_output("only/one time: [1.0 ns 1.0 ns 1.0 ns]\n");
        assert!(failures.iter().any(|f| f.contains("missing bench group")));
    }

    #[test]
    fn recorded_artifact_passes() {
        let text = include_str!("../../../bench_output.txt");
        let failures = check_bench_output(text);
        assert!(
            failures.is_empty(),
            "bench_output.txt invalid:\n{failures:#?}"
        );
    }
}
