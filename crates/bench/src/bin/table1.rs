//! Table I: the realized MLFMA operator census.

use ffw_bench::{print_table, write_json};
use ffw_geometry::Domain;
use ffw_mlfma::{Accuracy, MlfmaPlan};

fn main() {
    let plan = MlfmaPlan::new(&Domain::new(1024, 1.0), Accuracy::default());
    let c = plan.census();
    let rows = vec![
        vec![
            "Near-Field Interactions".into(),
            "Block-Toeplitz (dense in the paper)".into(),
            c.near_field_types.to_string(),
            "9".into(),
        ],
        vec![
            "Multipole Expansion".into(),
            "Dense".into(),
            c.expansion_types.to_string(),
            "1".into(),
        ],
        vec![
            "Interpolations".into(),
            "Band-Diagonal".into(),
            "1 per level pair".into(),
            "1".into(),
        ],
        vec![
            "Multipole Shiftings".into(),
            "Diagonal".into(),
            "4 per level".into(),
            "4".into(),
        ],
        vec![
            "Translations".into(),
            "Diagonal".into(),
            c.translation_types_per_level.to_string(),
            "40".into(),
        ],
        vec![
            "Local Shiftings".into(),
            "Diagonal".into(),
            "4 per level".into(),
            "4".into(),
        ],
        vec![
            "Anterpolations".into(),
            "Band-Diagonal".into(),
            "1 per level pair".into(),
            "1".into(),
        ],
        vec![
            "Local Expansions".into(),
            "Dense".into(),
            c.local_expansion_types.to_string(),
            "1".into(),
        ],
    ];
    print_table(
        "Table I: key MLFMA operators (102.4-lambda / 1M-unknown plan)",
        &["MLFMA Operator", "Structure", "# Types (realized)", "Paper"],
        &rows,
    );
    println!(
        "\nlevels: {} computed ({}..={}), depth {} (paper: eight levels for 1M unknowns)",
        plan.levels.len(),
        plan.levels[0].level,
        plan.levels.last().unwrap().level,
        plan.tree.depth()
    );
    for lp in &plan.levels {
        println!(
            "  level {}: {}x{} clusters of {:.1} lambda, L = {}, Q = {}",
            lp.level, lp.n_side, lp.n_side, lp.width, lp.l_trunc, lp.q
        );
    }
    let json = serde_json::json!({
        "near_field_types": c.near_field_types,
        "expansion_types": c.expansion_types,
        "interpolation_types": c.interpolation_types,
        "multipole_shift_types": c.multipole_shift_types,
        "translation_types_per_level": c.translation_types_per_level,
        "local_shift_types": c.local_shift_types,
        "anterpolation_types": c.anterpolation_types,
        "local_expansion_types": c.local_expansion_types,
    });
    write_json("table1", &json).expect("write results");
}
