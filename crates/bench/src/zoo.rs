//! The topology zoo used by the experiments.

use specstab_topology::spec::parse_spec;
use specstab_topology::Graph;

/// The standard experiment zoo: one representative per structural family,
/// the graphs of [`standard_specs`].
///
/// `scale` stretches instance sizes (1 = the quick sizes used in tests).
#[must_use]
pub fn standard(scale: usize) -> Vec<Graph> {
    standard_specs(scale).iter().map(|spec| parse_spec(spec).expect("valid zoo spec")).collect()
}

/// The standard zoo as campaign topology specs, in the
/// `specstab_topology::spec` grammar.
#[must_use]
pub fn standard_specs(scale: usize) -> Vec<String> {
    let s = scale.max(1);
    vec![
        format!("ring:{}", 6 * s),
        format!("ring:{}", 6 * s + 1),
        format!("path:{}", 6 * s),
        format!("star:{}", 4 * s + 1),
        format!("grid:3x{}", 2 * s + 1),
        format!("torus:3x{}", s + 3),
        format!("complete:{}", s + 4),
        format!("bintree:{}", 4 * s + 3),
        "petersen".to_string(),
        format!("er:{}:0.25", 5 * s + 5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_zoo_is_connected_and_diverse() {
        let zoo = standard(1);
        assert!(zoo.len() >= 8);
        for g in &zoo {
            assert!(g.is_connected(), "{}", g.name());
        }
        // Names are distinct.
        let mut names: Vec<&str> = zoo.iter().map(Graph::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), zoo.len());
    }
}
