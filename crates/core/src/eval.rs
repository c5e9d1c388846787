//! The evaluation framework of Figure 3 and §IV-E: preprocessing, attack
//! and defense modules plug together to measure *test accuracy* per
//! (defense, example-type) pair — the data behind Table III, Table IV and
//! Figure 4.

use gandef_attack::{
    perturb_chunked, Attack, AttackBudget, Bim, CarliniWagner, DeepFool, Fgsm, Pgd,
};
use gandef_nn::{accuracy, Classifier, Net};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;
use std::fmt;

/// Rows attacked per chunk during evaluation (memory bound).
const EVAL_CHUNK: usize = 32;

/// The four example types of Table III, in column order.
pub const TABLE3_EXAMPLES: [&str; 4] = ["Original", "FGSM", "BIM", "PGD"];

/// Builds the §IV-C attack set used by Table III: FGSM, BIM and PGD with
/// the dataset's budget.
pub fn standard_attacks(budget: &AttackBudget) -> Vec<Box<dyn Attack>> {
    vec![
        Box::new(Fgsm::new(budget.eps)),
        Box::new(Bim::new(budget.eps, budget.bim_step, budget.bim_iters)),
        Box::new(Pgd::new(budget.eps, budget.pgd_step, budget.pgd_iters)),
    ]
}

/// Builds the §V-B generalizability attack set used by Table IV: DeepFool
/// and CW, sharing PGD's budget as the paper specifies.
pub fn extended_attacks(budget: &AttackBudget) -> Vec<Box<dyn Attack>> {
    vec![
        Box::new(DeepFool::new(budget.eps, budget.pgd_iters.min(15))),
        // Fixed c = 10 approximates the strong end of the paper's CW
        // binary search (DESIGN.md §7) without its 9× cost.
        Box::new(CarliniWagner::new(budget.eps, budget.pgd_iters * 2).with_c(10.0)),
    ]
}

/// Domain-separation tag for [`evaluate`]'s per-attack RNG streams.
const EVAL_STREAM_TAG: u64 = 0x4556_414C; // "EVAL"

/// Test accuracy (§IV-E) of `net` on clean inputs and on each attack's
/// adversarial counterparts. Returns `(example_name, accuracy)` pairs,
/// starting with `"Original"`.
///
/// Every original example gets "its own corresponding adversarial
/// counterparts" (§IV-C): attacks run white-box against `net` itself.
///
/// Each attack draws from its own stream, derived by index from a single
/// fork taken at entry — so an attack's randomness depends only on the
/// incoming `rng` state and its position, never on how many draws earlier
/// attacks consumed, and the caller's `rng` advances by exactly one draw
/// regardless of the attack list.
pub fn evaluate(
    net: &Net,
    attacks: &[Box<dyn Attack>],
    x: &Tensor,
    labels: &[usize],
    rng: &mut Prng,
) -> Vec<(String, f32)> {
    let mut out = Vec::with_capacity(attacks.len() + 1);
    out.push(("Original".to_string(), accuracy(&net.predict(x), labels)));
    let root = rng.fork(EVAL_STREAM_TAG);
    for (idx, attack) in attacks.iter().enumerate() {
        let mut attack_rng = root.clone().fork(idx as u64);
        let adv = perturb_chunked(attack.as_ref(), net, x, labels, EVAL_CHUNK, &mut attack_rng);
        out.push((
            attack.name().to_string(),
            accuracy(&net.predict(&adv), labels),
        ));
    }
    out
}

/// One cell of the Table-III / Figure-4 accuracy grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Defense display name ("Vanilla", "ZK-GanDef", ...).
    pub defense: String,
    /// Dataset display name.
    pub dataset: String,
    /// Example type ("Original", "FGSM", ...).
    pub example: String,
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f32,
}

/// The full accuracy grid: defenses × example types × datasets.
///
/// This is the data structure the `table3` harness fills and renders; the
/// odd/even rows of Figure 4 are just per-dataset slices of it.
#[derive(Clone, Debug, Default)]
pub struct AccuracyGrid {
    cells: Vec<Cell>,
}

impl AccuracyGrid {
    /// Creates an empty grid.
    pub fn new() -> Self {
        AccuracyGrid::default()
    }

    /// Records one measurement. Re-recording an existing
    /// `(defense, dataset, example)` cell overwrites it in place (keeping
    /// its original position), so re-running an evaluation updates the grid
    /// instead of leaving a stale duplicate behind `get`'s first-match.
    pub fn record(&mut self, defense: &str, dataset: &str, example: &str, accuracy: f32) {
        if let Some(cell) = self
            .cells
            .iter_mut()
            .find(|c| c.defense == defense && c.dataset == dataset && c.example == example)
        {
            cell.accuracy = accuracy;
            return;
        }
        self.cells.push(Cell {
            defense: defense.to_string(),
            dataset: dataset.to_string(),
            example: example.to_string(),
            accuracy,
        });
    }

    /// Looks up a cell's accuracy.
    pub fn get(&self, defense: &str, dataset: &str, example: &str) -> Option<f32> {
        self.cells
            .iter()
            .find(|c| c.defense == defense && c.dataset == dataset && c.example == example)
            .map(|c| c.accuracy)
    }

    /// All recorded cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Distinct defense names in insertion order.
    pub fn defenses(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.defense) {
                seen.push(c.defense.clone());
            }
        }
        seen
    }

    /// Distinct dataset names in insertion order.
    pub fn datasets(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.dataset) {
                seen.push(c.dataset.clone());
            }
        }
        seen
    }

    /// Renders the grid in the layout of the paper's Table III: one block
    /// per dataset, defenses as rows, example types as columns.
    pub fn to_markdown(&self, examples: &[&str]) -> String {
        let mut out = String::new();
        for dataset in self.datasets() {
            out.push_str(&format!("\n### {dataset}\n\n"));
            out.push_str(&format!("| Defense | {} |\n", examples.join(" | ")));
            out.push_str(&format!("|---|{}\n", "---|".repeat(examples.len())));
            for defense in self.defenses() {
                let row: Vec<String> = examples
                    .iter()
                    .map(|e| match self.get(&defense, &dataset, e) {
                        Some(a) => format!("{:.2}%", a * 100.0),
                        None => "—".to_string(),
                    })
                    .collect();
                out.push_str(&format!("| {} | {} |\n", defense, row.join(" | ")));
            }
        }
        out
    }

    /// Renders the grid as CSV (`defense,dataset,example,accuracy`), for
    /// plotting Figure 4.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("defense,dataset,example,accuracy\n");
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{},{:.4}\n",
                c.defense, c.dataset, c.example, c.accuracy
            ));
        }
        out
    }
}

impl fmt::Display for AccuracyGrid {
    /// Renders with the Table-III column set.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown(&TABLE3_EXAMPLES))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gandef_data::{generate, DatasetKind, GenSpec};
    use gandef_nn::zoo;

    #[test]
    fn attack_sets_have_expected_names() {
        let b = AttackBudget::for_28x28();
        let std: Vec<&str> = standard_attacks(&b)
            .iter()
            .map(|a| a.name().to_string())
            .map(|s| Box::leak(s.into_boxed_str()) as &str)
            .collect();
        assert_eq!(std, vec!["FGSM", "BIM", "PGD"]);
        let ext: Vec<String> = extended_attacks(&b)
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        assert_eq!(ext, vec!["DeepFool", "CW"]);
    }

    #[test]
    fn evaluate_reports_original_first_and_bounded() {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 10,
                test: 8,
                seed: 0,
            },
        );
        let mut rng = Prng::new(0);
        let net = Net::new(zoo::mlp(28 * 28, 16, 10), &mut rng);
        let b = AttackBudget::for_28x28();
        let attacks: Vec<Box<dyn Attack>> = vec![Box::new(Fgsm::new(b.eps))];
        let rows = evaluate(&net, &attacks, &ds.test_x, &ds.test_y, &mut rng);
        assert_eq!(rows[0].0, "Original");
        assert_eq!(rows[1].0, "FGSM");
        for (_, acc) in rows {
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn evaluate_attack_streams_are_decoupled() {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 10,
                test: 8,
                seed: 1,
            },
        );
        let mut rng = Prng::new(0);
        let net = Net::new(zoo::mlp(28 * 28, 16, 10), &mut rng);
        let b = AttackBudget::for_28x28();
        let pgd = || -> Box<dyn Attack> { Box::new(Pgd::new(b.eps, b.pgd_step, 5)) };

        // PGD at position 1 must see the same stream whether position 0 is
        // held by an RNG-free attack (FGSM) or an RNG-hungry one (PGD): 8
        // test rows < EVAL_CHUNK, so the old code handed PGD whatever state
        // the previous attack left behind.
        let run = |first: Box<dyn Attack>| {
            let attacks = vec![first, pgd()];
            let mut r = Prng::new(7);
            evaluate(&net, &attacks, &ds.test_x, &ds.test_y, &mut r)
        };
        let with_fgsm = run(Box::new(Fgsm::new(b.eps)));
        let with_pgd = run(pgd());
        assert_eq!(
            with_fgsm[2].1, with_pgd[2].1,
            "position-1 attack must not depend on position-0 draws"
        );

        // The caller's rng advances identically no matter which attacks
        // ran (exactly one fork), so downstream draws stay reproducible
        // when the attack set changes.
        let mut r1 = Prng::new(9);
        let attacks1: Vec<Box<dyn Attack>> = vec![Box::new(Fgsm::new(b.eps))];
        evaluate(&net, &attacks1, &ds.test_x, &ds.test_y, &mut r1);
        let mut r2 = Prng::new(9);
        let attacks2: Vec<Box<dyn Attack>> = vec![pgd(), pgd(), pgd()];
        evaluate(&net, &attacks2, &ds.test_x, &ds.test_y, &mut r2);
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn grid_record_overwrites_existing_cell() {
        let mut g = AccuracyGrid::new();
        g.record("Vanilla", "D", "Original", 0.5);
        g.record("Vanilla", "D", "FGSM", 0.2);
        // Re-recording updates in place: same position, new value, no
        // duplicate row in the CSV.
        g.record("Vanilla", "D", "Original", 0.9);
        assert_eq!(g.get("Vanilla", "D", "Original"), Some(0.9));
        assert_eq!(g.cells().len(), 2);
        assert_eq!(g.cells()[0].example, "Original", "position preserved");
        assert_eq!(g.to_csv().lines().count(), 1 + 2);
    }

    #[test]
    fn grid_roundtrip_and_rendering() {
        let mut g = AccuracyGrid::new();
        g.record("Vanilla", "MNIST-like", "Original", 0.989);
        g.record("Vanilla", "MNIST-like", "FGSM", 0.21);
        g.record("ZK-GanDef", "MNIST-like", "Original", 0.98);
        assert_eq!(g.get("Vanilla", "MNIST-like", "FGSM"), Some(0.21));
        assert_eq!(g.get("Nope", "MNIST-like", "FGSM"), None);
        assert_eq!(g.defenses(), vec!["Vanilla", "ZK-GanDef"]);
        let md = g.to_markdown(&["Original", "FGSM"]);
        assert!(md.contains("98.90%"));
        assert!(md.contains("| Vanilla |"));
        assert!(md.contains("—"), "missing cells render as dashes");
        let csv = g.to_csv();
        assert!(csv.starts_with("defense,dataset,example,accuracy\n"));
        assert!(csv.contains("Vanilla,MNIST-like,FGSM,0.2100"));
    }
}
