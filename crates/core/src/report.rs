//! Rendering helpers for the benchmark harness: markdown tables and CSV
//! series matching the paper's artifacts.

use crate::defense::TrainReport;

/// Renders one panel of Figure 5 (left & middle) for `dataset`: a
/// markdown table of each defense's training time per epoch, then
/// ZK-GanDef's training-time reduction against PGD-Adv beside the paper's
/// figure `paper_reduction`; and the CSV rows
/// `dataset,defense,seconds_per_epoch`. Returns `(markdown, csv)`.
///
/// A report with no recorded epoch (the divergence guard stopped it
/// before its first healthy one) reads `n/a`, and so does a reduction
/// missing either side.
pub fn training_time_panel(
    dataset: &str,
    reports: &[&TrainReport],
    paper_reduction: &str,
) -> (String, String) {
    let mean = |name: &str| {
        reports
            .iter()
            .find(|r| r.defense == name)
            .and_then(|r| r.mean_epoch_seconds())
    };
    let reduction = match (mean("ZK-GanDef"), mean("PGD-Adv")) {
        (Some(zk), Some(pgd_adv)) => format!("{:.2}%", reduction_percent(zk, pgd_adv)),
        _ => "n/a".to_string(),
    };
    let mut md = format!(
        "\n### {dataset}\n\n| Defense | s/epoch | total s | final loss |\n|---|---|---|---|\n"
    );
    for r in reports {
        md.push_str(&format!(
            "| {} | {} | {:.1} | {:.3} |\n",
            r.defense,
            seconds_per_epoch(r, 2),
            r.total_seconds(),
            r.final_loss()
        ));
    }
    md.push_str(&format!(
        "\nZK-GanDef vs PGD-Adv on {dataset}: {reduction} training-time reduction \
         (paper: {paper_reduction}%)\n"
    ));
    let csv = reports
        .iter()
        .map(|r| format!("{dataset},{},{}\n", r.defense, seconds_per_epoch(r, 4)))
        .collect();
    (md, csv)
}

/// A report's mean seconds per epoch to `decimals` places, or `n/a`.
fn seconds_per_epoch(report: &TrainReport, decimals: usize) -> String {
    report
        .mean_epoch_seconds()
        .map_or_else(|| "n/a".to_string(), |s| format!("{s:.decimals$}"))
}

/// Renders loss-convergence traces (Figure 5 right) as CSV: one column per
/// labelled run, one row per epoch.
pub fn loss_trace_csv(traces: &[(String, &[f32])]) -> String {
    let mut out = String::from("epoch");
    for (label, _) in traces {
        out.push(',');
        out.push_str(label);
    }
    out.push('\n');
    let rows = traces.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
    for e in 0..rows {
        out.push_str(&e.to_string());
        for (_, t) in traces {
            match t.get(e) {
                Some(v) => out.push_str(&format!(",{v:.4}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Formats a ratio as the paper does ("92.11% less than PGD-Adv").
pub fn reduction_percent(ours: f64, theirs: f64) -> f64 {
    if theirs <= 0.0 {
        return 0.0;
    }
    (1.0 - ours / theirs) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &'static str, secs: &[f64], losses: &[f32]) -> TrainReport {
        let mut r = TrainReport::new(name);
        r.epoch_seconds = secs.to_vec();
        r.epoch_losses = losses.to_vec();
        r
    }

    #[test]
    fn time_table_lists_all_defenses() {
        let a = report("ZK-GanDef", &[1.0, 1.2], &[2.0, 1.0]);
        let b = report("PGD-Adv", &[10.0, 10.4], &[2.0, 0.9]);
        let (md, csv) = training_time_panel("28x28", &[&a, &b], "92.11");
        assert!(md.starts_with("\n### 28x28\n"), "{md}");
        assert!(md.contains("| ZK-GanDef | 1.10 |"));
        assert!(md.contains("| PGD-Adv | 10.20 |"));
        assert_eq!(csv, "28x28,ZK-GanDef,1.1000\n28x28,PGD-Adv,10.2000\n");
    }

    #[test]
    fn time_panel_renders_a_report_without_epochs_as_na() {
        let zk = report("ZK-GanDef", &[1.0, 1.2], &[2.0, 1.0]);
        let stopped = TrainReport::new("PGD-Adv");
        let (md, csv) = training_time_panel("SynthDigits", &[&zk, &stopped], "92.11");
        assert!(md.contains("| ZK-GanDef | 1.10 |"), "{md}");
        assert!(md.contains("| PGD-Adv | n/a | 0.0 | NaN |"), "{md}");
        assert!(
            md.contains("on SynthDigits: n/a training-time reduction (paper: 92.11%)"),
            "{md}"
        );
        assert_eq!(
            csv,
            "SynthDigits,ZK-GanDef,1.1000\nSynthDigits,PGD-Adv,n/a\n"
        );

        let pgd = report("PGD-Adv", &[10.0, 12.0], &[2.0, 1.0]);
        let (md, _) = training_time_panel("SynthCifar", &[&zk, &pgd], "51.53");
        assert!(
            md.ends_with("on SynthCifar: 90.00% training-time reduction (paper: 51.53%)\n"),
            "{md}"
        );
    }

    #[test]
    fn loss_csv_pads_ragged_traces() {
        let t1 = [2.0f32, 1.0];
        let t2 = [2.0f32, 1.5, 1.2];
        let csv = loss_trace_csv(&[("a".into(), &t1), ("b".into(), &t2)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "epoch,a,b");
        assert_eq!(lines[1], "0,2.0000,2.0000");
        assert_eq!(lines[3], "2,,1.2000");
    }

    #[test]
    fn reduction_percent_matches_paper_style() {
        // Paper §V-C: ZK-GanDef 8.75 s/epoch vs PGD-Adv 110.85 → 92.11% less.
        let r = reduction_percent(8.75, 110.85);
        assert!((r - 92.11).abs() < 0.05, "{r}");
        assert_eq!(reduction_percent(1.0, 0.0), 0.0);
    }
}
