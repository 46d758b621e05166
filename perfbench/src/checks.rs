//! Exact output checks. Every check recomputes its answer through an
//! independent path (the per-fault simulation engine, a naive greedy,
//! the library in-process) and returns `Err` with the first mismatch.
//! None of them depends on the seed: they hold for every input.

use adi_atpg::{FaultStatus, TestGenResult};
use adi_core::dynamic::DynamicTrace;
use adi_core::{AdiAnalysis, FaultOrdering};
use adi_netlist::fault::{FaultId, FaultList};
use adi_netlist::CompiledCircuit;
use adi_sim::{EngineKind, FaultSimulator, PatternSet};

/// `order` must name every fault id in `0..n` exactly once.
pub fn permutation(order: &[FaultId], n: usize) -> Result<(), String> {
    if order.len() != n {
        return Err(format!("order has {} entries for {n} faults", order.len()));
    }
    let mut seen = vec![false; n];
    for (pos, f) in order.iter().enumerate() {
        let i = f.index();
        if i >= n || std::mem::replace(&mut seen[i], true) {
            return Err(format!(
                "order position {pos}: fault {i} out of range or repeated"
            ));
        }
    }
    Ok(())
}

/// Re-simulates the generated tests with the per-fault engine: each
/// fault's first detecting test must be the one its status names, and
/// faults not classified as detected (redundant, aborted) must stay
/// undetected.
pub fn test_set(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    result: &TestGenResult,
) -> Result<(), String> {
    let num_inputs = circuit.netlist().num_inputs();
    let tests = PatternSet::from_patterns(num_inputs, &result.tests);
    let oracle = FaultSimulator::for_circuit_with_engine(circuit, faults, EngineKind::PerFault)
        .with_dropping(&tests);
    if result.status.len() != faults.len() {
        return Err(format!(
            "{} statuses for {} faults",
            result.status.len(),
            faults.len()
        ));
    }
    for (f, (status, first)) in result
        .status
        .iter()
        .zip(&oracle.first_detection)
        .enumerate()
    {
        let claimed = match *status {
            FaultStatus::DetectedAsTarget { test } | FaultStatus::DetectedAccidentally { test } => {
                Some(test)
            }
            FaultStatus::Redundant | FaultStatus::Aborted => None,
        };
        if claimed != *first {
            return Err(format!(
                "fault {f}: status {status:?} but the per-fault engine first detects it at {first:?}"
            ));
        }
    }
    Ok(())
}

/// Replays a dynamic-order trace: each `selected_adi[i]` must equal the
/// ADI of `order[i]` recomputed from the `ndet` counts left after the
/// earlier selections, the values must never increase, and the order
/// must hold exactly the faults `U` detects.
pub fn dynamic_trace(analysis: &AdiAnalysis, trace: &DynamicTrace) -> Result<(), String> {
    if trace.order.len() != trace.selected_adi.len() {
        return Err("trace order and selected_adi differ in length".into());
    }
    let detected: Vec<FaultId> = (0..analysis.num_faults())
        .map(FaultId::new)
        .filter(|&f| analysis.adi(f) > 0)
        .collect();
    let mut sorted = trace.order.clone();
    sorted.sort();
    if sorted != detected {
        return Err("dynamic order is not a permutation of the detected faults".into());
    }
    let mut ndet = analysis.ndet_counts().to_vec();
    let mut prev = u32::MAX;
    for (i, (&f, &claimed)) in trace.order.iter().zip(&trace.selected_adi).enumerate() {
        let adi = analysis
            .detecting_patterns(f)
            .map(|u| ndet[u])
            .min()
            .unwrap_or(0);
        if adi != claimed {
            return Err(format!(
                "selection {i}: fault {f} recorded ADI {claimed}, recomputed {adi}"
            ));
        }
        if adi > prev {
            return Err(format!("selection {i}: ADI rose from {prev} to {adi}"));
        }
        prev = adi;
        for u in analysis.detecting_patterns(f) {
            ndet[u] -= 1;
        }
    }
    Ok(())
}

/// The `Fdynm`/`F0dynm` order the experiment used must be the traced
/// dynamic order with the zero-ADI faults (in original order) appended
/// or prepended.
pub fn dynamic_order_matches(
    analysis: &AdiAnalysis,
    trace: &DynamicTrace,
    ordering: FaultOrdering,
    order: &[FaultId],
) -> Result<(), String> {
    let zeros: Vec<FaultId> = (0..analysis.num_faults())
        .map(FaultId::new)
        .filter(|&f| analysis.adi(f) == 0)
        .collect();
    let expected: Vec<FaultId> = match ordering {
        FaultOrdering::Dynamic => trace.order.iter().chain(&zeros).copied().collect(),
        FaultOrdering::Dynamic0 => zeros.iter().chain(&trace.order).copied().collect(),
        other => return Err(format!("{other} is not a dynamic ordering")),
    };
    match expected.iter().zip(order).position(|(a, b)| a != b) {
        None if expected.len() == order.len() => Ok(()),
        None => Err(format!("{ordering}: order length differs from the trace")),
        Some(pos) => Err(format!(
            "{ordering}: position {pos} holds {} but the traced order has {}",
            order[pos], expected[pos]
        )),
    }
}

/// The naive `O(n^2)` greedy the lazy bucket queue must reproduce:
/// repeatedly select the remaining detected fault with the largest
/// current ADI (ties to the lower fault id), then decrement `ndet` of
/// the vectors that detect it.
pub fn naive_dynamic(analysis: &AdiAnalysis) -> Vec<FaultId> {
    let mut ndet = analysis.ndet_counts().to_vec();
    let mut remaining: Vec<FaultId> = (0..analysis.num_faults())
        .map(FaultId::new)
        .filter(|&f| analysis.adi(f) > 0)
        .collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let mut best = 0;
        let mut best_adi = 0;
        for (pos, &f) in remaining.iter().enumerate() {
            let adi = analysis
                .detecting_patterns(f)
                .map(|u| ndet[u])
                .min()
                .unwrap_or(0);
            // Strictly greater: the earliest (lowest id) fault wins ties.
            if adi > best_adi {
                best = pos;
                best_adi = adi;
            }
        }
        let f = remaining.remove(best);
        for u in analysis.detecting_patterns(f) {
            ndet[u] -= 1;
        }
        order.push(f);
    }
    order
}

/// `order` must equal [`naive_dynamic`] exactly.
pub fn matches_naive(analysis: &AdiAnalysis, order: &[FaultId]) -> Result<(), String> {
    let naive = naive_dynamic(analysis);
    match naive.iter().zip(order).position(|(a, b)| a != b) {
        None if naive.len() == order.len() => Ok(()),
        None => Err("dynamic order length differs from the naive greedy".into()),
        Some(pos) => Err(format!(
            "dynamic order position {pos}: {} but the naive greedy selects {}",
            order[pos], naive[pos]
        )),
    }
}

/// Repeat responses to one request must be byte-identical once the
/// echoed id is removed. `responses` holds `(id, response line)`.
pub fn identical_repeats(responses: &[(u64, &str)]) -> Result<(), String> {
    let mut first: Option<(u64, &str)> = None;
    for &(id, line) in responses {
        let body = strip_id(line, id)?;
        match first {
            None => first = Some((id, body)),
            Some((id0, body0)) if body0 != body => {
                return Err(format!(
                    "responses to ids {id0} and {id} differ beyond the id"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// The response line without its leading `"id":<id>,` member.
pub fn strip_id(line: &str, id: u64) -> Result<&str, String> {
    let prefix = format!("{{\"id\":{id},");
    line.strip_prefix(&prefix)
        .ok_or_else(|| format!("response does not start with id {id}: {}", clip(line)))
}

/// The first 120 bytes of `s`, for error messages.
pub fn clip(s: &str) -> &str {
    let mut end = s.len().min(120);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_atpg::{TestGenConfig, TestGenerator};
    use adi_circuits::{random_circuit, RandomCircuitConfig};
    use adi_core::dynamic::dynamic_order_traced;
    use adi_core::{order_faults, AdiConfig};

    fn small() -> CompiledCircuit {
        CompiledCircuit::compile(random_circuit(&RandomCircuitConfig::new(
            "small", 12, 80, 3,
        )))
    }

    fn analysis(c: &CompiledCircuit) -> AdiAnalysis {
        let u = PatternSet::random(c.netlist().num_inputs(), 48, 9);
        AdiAnalysis::for_circuit(c, c.collapsed_faults(), &u, AdiConfig::default())
    }

    #[test]
    fn permutation_rejects_a_repeated_entry() {
        let c = small();
        let a = analysis(&c);
        let mut order = order_faults(&a, FaultOrdering::Dynamic0);
        permutation(&order, a.num_faults()).unwrap();
        order[1] = order[0];
        assert!(permutation(&order, a.num_faults()).is_err());
    }

    #[test]
    fn dynamic_checks_reject_a_swapped_order_entry() {
        let c = small();
        let a = analysis(&c);
        let trace = dynamic_order_traced(&a);
        dynamic_trace(&a, &trace).unwrap();
        matches_naive(&a, &trace.order).unwrap();
        for ord in [FaultOrdering::Dynamic, FaultOrdering::Dynamic0] {
            let mut order = order_faults(&a, ord);
            dynamic_order_matches(&a, &trace, ord, &order).unwrap();
            let last = order.len() - 1;
            order.swap(0, last);
            assert!(dynamic_order_matches(&a, &trace, ord, &order).is_err());
        }
        let mut swapped = trace.clone();
        swapped.order.swap(0, 1);
        assert!(matches_naive(&a, &swapped.order).is_err());
        let mut raised = trace.clone();
        raised.selected_adi[0] += 1;
        assert!(dynamic_trace(&a, &raised).is_err());
    }

    #[test]
    fn test_set_check_rejects_a_flipped_test_bit() {
        let c = small();
        let faults = c.collapsed_faults();
        let order: Vec<FaultId> = faults.ids().collect();
        let result = TestGenerator::for_circuit(&c, faults, TestGenConfig::default()).run(&order);
        test_set(&c, faults, &result).unwrap();
        // Some bit of some test must matter: flipping it changes which
        // test first detects at least one fault.
        let caught = (0..result.tests.len()).any(|t| {
            (0..c.netlist().num_inputs()).any(|bit| {
                let mut bad = result.clone();
                let v = bad.tests[t].get(bit);
                bad.tests[t].set(bit, !v);
                test_set(&c, faults, &bad).is_err()
            })
        });
        assert!(caught);
    }

    #[test]
    fn repeat_check_rejects_an_altered_byte() {
        let a = r#"{"id":1,"ok":true,"result":{"n":5}}"#;
        let b = r#"{"id":22,"ok":true,"result":{"n":5}}"#;
        let bad = r#"{"id":3,"ok":true,"result":{"n":6}}"#;
        identical_repeats(&[(1, a), (22, b)]).unwrap();
        assert!(identical_repeats(&[(1, a), (22, b), (3, bad)]).is_err());
        assert!(identical_repeats(&[(2, a)]).is_err(), "wrong id prefix");
    }
}
