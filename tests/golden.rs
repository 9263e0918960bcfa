//! The byte-identity anchor: every golden run (9 families × 29 configs
//! exact, plus Base/Runahead/EspNl sampled and learned) must reproduce
//! the digests committed in `tests/golden_digests.txt`. Regenerate with
//! `cargo run --release -p esp-bench --bin repro -- --bless` when a
//! change to simulated behaviour is intended, and say why in the commit.

use esp_bench::golden;

#[test]
fn golden_digests_match() {
    let want =
        std::fs::read_to_string(golden::default_path()).expect("read tests/golden_digests.txt");
    let got = golden::compute(esp_par::threads());
    let drift: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  committed: {w}\n  computed:  {g}"))
        .collect();
    assert!(
        drift.is_empty() && want.lines().count() == got.lines().count(),
        "{} golden line(s) drifted (of {} committed, {} computed):\n{}",
        drift.len(),
        want.lines().count(),
        got.lines().count(),
        drift.join("\n")
    );
}
