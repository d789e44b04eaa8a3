//! The result line: one JSON object, last on stdout. Written and read
//! back by this crate only (`--all`, `--sets`, the schema self-test), so
//! the reader is a scanner for this exact layout, not a JSON parser.

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{"<name>":{"value":…,"unit":"…"},…}}`
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}

/// What a run printed as its last line.
#[derive(Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_line(line: &str) -> Option<RunResult> {
    let int_after = |key: &str| -> Option<u64> {
        let rest = line.split_once(key)?.1;
        rest[..rest.find([',', '}'])?].parse().ok()
    };
    let body = line.split_once("\"metrics\":{")?.1;
    let mut metrics = Vec::new();
    for part in body.split("\"unit\"") {
        // `…"<name>":{"value":<number>,`
        let Some((head, value)) = part.rsplit_once(":{\"value\":") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        metrics.push((name.to_string(), value.trim_end_matches(',').parse().ok()?));
    }
    Some(RunResult {
        correct: line.contains("\"correct\":true"),
        attempted: int_after("\"attempted\":")?,
        failed: int_after("\"failed\":")?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_written_line_reads_back() {
        let line = json_line(
            true,
            12,
            0,
            &[("qps", 1234.5, "1/s"), ("net.admit_us", 0.25, "us")],
        );
        let r = parse_line(&line).expect("own layout parses");
        assert_eq!(
            r,
            RunResult {
                correct: true,
                attempted: 12,
                failed: 0,
                metrics: vec![("qps".into(), 1234.5), ("net.admit_us".into(), 0.25)],
            }
        );
    }
}
