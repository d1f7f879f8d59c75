//! The benchmark's own knowledge of its circuits, kept apart from the
//! program: hand-written functions of the Table 1 circuits, the seeded
//! netlist generator behind `server_mixed` (with its own evaluator,
//! Verilog and BLIF writers), and the functional check of a placed
//! layout against either.

use crate::measure::Rng;
use fcn_layout::hexagonal::HexGateLayout;

/// A circuit function as the benchmark computes it: input and output
/// names in declaration order, and the function over inputs in that
/// order.
pub trait Function {
    fn inputs(&self) -> Vec<String>;
    fn outputs(&self) -> Vec<String>;
    fn eval(&self, inputs: &[bool]) -> Vec<bool>;
}

/// A Table 1 circuit's reference function, written by hand from the
/// circuit's definition (parity, majority, adder, …).
pub struct Table1Function {
    inputs: &'static [&'static str],
    outputs: &'static [&'static str],
    eval: fn(&[bool]) -> Vec<bool>,
}

impl Function for Table1Function {
    fn inputs(&self) -> Vec<String> {
        self.inputs.iter().map(|s| (*s).to_owned()).collect()
    }
    fn outputs(&self) -> Vec<String> {
        self.outputs.iter().map(|s| (*s).to_owned()).collect()
    }
    fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        (self.eval)(inputs)
    }
}

fn parity(v: &[bool]) -> bool {
    v.iter().filter(|&&b| b).count() % 2 == 1
}

fn at_least(v: &[bool], k: usize) -> bool {
    v.iter().filter(|&&b| b).count() >= k
}

/// The reference function of a Table 1 circuit (`None` for a name the
/// benchmark does not run).
pub fn table1_function(name: &str) -> Option<Table1Function> {
    const AB_F: &[&str] = &["a", "b"];
    const F: &[&str] = &["f"];
    const ABCDE: &[&str] = &["a", "b", "c", "d", "e"];
    Some(match name {
        "xor2" => Table1Function {
            inputs: AB_F,
            outputs: F,
            eval: |v| vec![v[0] ^ v[1]],
        },
        "xnor2" => Table1Function {
            inputs: AB_F,
            outputs: F,
            eval: |v| vec![!(v[0] ^ v[1])],
        },
        "par_gen" => Table1Function {
            inputs: &["a", "b", "c"],
            outputs: &["p"],
            eval: |v| vec![parity(v)],
        },
        "mux21" => Table1Function {
            inputs: &["a", "b", "s"],
            outputs: F,
            eval: |v| vec![if v[2] { v[1] } else { v[0] }],
        },
        "par_check" => Table1Function {
            inputs: &["a", "b", "c", "d"],
            outputs: &["e"],
            eval: |v| vec![parity(v)],
        },
        "xor5_r1" | "xor5_majority" => Table1Function {
            inputs: ABCDE,
            outputs: F,
            eval: |v| vec![parity(v)],
        },
        "t" => Table1Function {
            inputs: ABCDE,
            outputs: &["s", "u"],
            eval: |v| {
                let (a, b, c, d, e) = (v[0], v[1], v[2], v[3], v[4]);
                let w1 = (a && b) ^ (c || d);
                let w2 = (c || d) && !e;
                vec![w1 || w2, w1 ^ (b && e)]
            },
        },
        "t_5" => Table1Function {
            inputs: ABCDE,
            outputs: &["s", "u"],
            eval: |v| {
                let (a, b, c, d, e) = (v[0], v[1], v[2], v[3], v[4]);
                let w1 = (a && b) ^ (c && d);
                let w2 = (b || c) && e;
                vec![w1 ^ w2, w1 || (d && e)]
            },
        },
        "c17" => Table1Function {
            inputs: &["in1", "in2", "in3", "in6", "in7"],
            outputs: &["out22", "out23"],
            eval: |v| {
                let nand = |x: bool, y: bool| !(x && y);
                let n10 = nand(v[0], v[2]);
                let n11 = nand(v[2], v[3]);
                let n16 = nand(v[1], n11);
                let n19 = nand(n11, v[4]);
                vec![nand(n10, n16), nand(n16, n19)]
            },
        },
        "majority" => Table1Function {
            inputs: &["a", "b", "c"],
            outputs: &["m"],
            eval: |v| vec![at_least(v, 2)],
        },
        "majority_5_r1" => Table1Function {
            inputs: ABCDE,
            outputs: &["m"],
            eval: |v| vec![at_least(v, 3)],
        },
        "cm82a_5" => Table1Function {
            inputs: &["a0", "a1", "b0", "b1", "cin"],
            outputs: &["s0", "s1", "cout"],
            eval: |v| {
                let a = u32::from(v[0]) + 2 * u32::from(v[1]);
                let b = u32::from(v[2]) + 2 * u32::from(v[3]);
                let sum = a + b + u32::from(v[4]);
                vec![sum & 1 == 1, sum & 2 == 2, sum & 4 == 4]
            },
        },
        _ => return None,
    })
}

/// Checks a placed layout against a reference function: the design
/// rules hold, and the network `fcn_equiv::extract_network` reads off
/// the layout computes the function on every input pattern. Returns a
/// description of the first mismatch.
pub fn check_layout(layout: &HexGateLayout, function: &dyn Function) -> Result<(), String> {
    let violations = layout.verify();
    if !violations.is_empty() {
        return Err(format!("design-rule violations: {violations:?}"));
    }
    let network =
        fcn_equiv::extract_network(layout).map_err(|e| format!("extraction failed: {e}"))?;
    let names = |ids: Vec<fcn_logic::techmap::MappedId>| -> Vec<String> {
        ids.into_iter()
            .map(|id| network.node(id).name.clone().unwrap_or_default())
            .collect()
    };
    let layout_inputs = names(network.primary_inputs());
    let layout_outputs = names(network.primary_outputs());
    let inputs = function.inputs();
    let outputs = function.outputs();
    let mut sorted_in = layout_inputs.clone();
    sorted_in.sort();
    let mut want_in = inputs.clone();
    want_in.sort();
    let mut sorted_out = layout_outputs.clone();
    sorted_out.sort();
    let mut want_out = outputs.clone();
    want_out.sort();
    if sorted_in != want_in || sorted_out != want_out {
        return Err(format!(
            "interface {layout_inputs:?} -> {layout_outputs:?}, expected {inputs:?} -> {outputs:?}"
        ));
    }
    let input_index: Vec<usize> = layout_inputs
        .iter()
        .map(|n| inputs.iter().position(|m| m == n).expect("same name sets"))
        .collect();
    let output_index: Vec<usize> = layout_outputs
        .iter()
        .map(|n| outputs.iter().position(|m| m == n).expect("same name sets"))
        .collect();
    for pattern in 0..1u32 << inputs.len() {
        let assignment: Vec<bool> = (0..inputs.len()).map(|i| pattern >> i & 1 == 1).collect();
        let expected = function.eval(&assignment);
        let layout_assignment: Vec<bool> = input_index.iter().map(|&i| assignment[i]).collect();
        let got = network.simulate(&layout_assignment);
        for (k, &o) in output_index.iter().enumerate() {
            if got[k] != expected[o] {
                return Err(format!(
                    "output {} is {} on pattern {pattern:#b}, expected {}",
                    outputs[o], got[k], expected[o]
                ));
            }
        }
    }
    Ok(())
}

/// Checks an XAG (parsed from an answer's exported Verilog) against a
/// reference function on every input pattern.
pub fn check_xag(xag: &fcn_logic::network::Xag, function: &dyn Function) -> Result<(), String> {
    let inputs = function.inputs();
    let outputs = function.outputs();
    let xag_inputs: Vec<&str> = (0..xag.num_pis()).map(|i| xag.pi_name(i)).collect();
    let xag_outputs: Vec<&str> = xag
        .primary_outputs()
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    if xag_inputs != inputs || xag_outputs != outputs {
        return Err(format!(
            "interface {xag_inputs:?} -> {xag_outputs:?}, expected {inputs:?} -> {outputs:?}"
        ));
    }
    for pattern in 0..1u32 << inputs.len() {
        let assignment: Vec<bool> = (0..inputs.len()).map(|i| pattern >> i & 1 == 1).collect();
        if xag.simulate(&assignment) != function.eval(&assignment) {
            return Err(format!(
                "differs from the generator on pattern {pattern:#b}"
            ));
        }
    }
    Ok(())
}

/// A two-input operator of the generated netlists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    And,
    Or,
    Xor,
}

impl Op {
    fn apply(self, a: bool, b: bool) -> bool {
        match self {
            Op::And => a && b,
            Op::Or => a || b,
            Op::Xor => a ^ b,
        }
    }

    fn verilog(self) -> &'static str {
        match self {
            Op::And => "&",
            Op::Or => "|",
            Op::Xor => "^",
        }
    }
}

/// A gate operand: a primary input (`< num_inputs`) or an earlier
/// gate's wire, optionally complemented.
#[derive(Debug, Clone, Copy)]
struct Operand {
    signal: usize,
    negated: bool,
}

#[derive(Debug, Clone)]
struct Gate {
    op: Op,
    a: Operand,
    b: Operand,
}

/// A seeded random multi-level netlist: `num_inputs` inputs `x0…`, a
/// list of two-input gates (signal `num_inputs + k` is gate `k`), and
/// one or two outputs `y0…` driven by gate wires.
#[derive(Debug, Clone)]
pub struct Generated {
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<usize>,
}

impl Generated {
    /// Draws a netlist of `num_inputs` inputs whose first output
    /// depends on every input: a random read-once tree over all inputs,
    /// sometimes one reconvergent gate on top, and sometimes a second
    /// output tapping an inner wire.
    pub fn generate(rng: &mut Rng, num_inputs: usize) -> Generated {
        loop {
            let mut open: Vec<usize> = (0..num_inputs).collect();
            rng.shuffle(&mut open);
            let mut gates = Vec::new();
            let operand = |rng: &mut Rng, signal: usize| Operand {
                signal,
                negated: rng.below(4) == 0,
            };
            let pick_op = |rng: &mut Rng| match rng.below(3) {
                0 => Op::And,
                1 => Op::Or,
                _ => Op::Xor,
            };
            while open.len() > 1 {
                let i = rng.below(open.len());
                let a = open.swap_remove(i);
                let j = rng.below(open.len());
                let b = open.swap_remove(j);
                let gate = Gate {
                    op: pick_op(rng),
                    a: operand(rng, a),
                    b: operand(rng, b),
                };
                gates.push(gate);
                open.push(num_inputs + gates.len() - 1);
            }
            let mut root = open[0];
            if rng.below(3) == 0 {
                let other = rng.below(root);
                gates.push(Gate {
                    op: pick_op(rng),
                    a: operand(rng, root),
                    b: operand(rng, other),
                });
                root = num_inputs + gates.len() - 1;
            }
            let mut outputs = vec![root];
            if gates.len() > 2 && rng.below(3) == 0 {
                outputs.push(num_inputs + rng.below(gates.len() - 1));
            }
            let candidate = Generated {
                num_inputs,
                gates,
                outputs,
            };
            if candidate.is_well_formed() {
                return candidate;
            }
        }
    }

    /// Every input in the support of the first output, and no constant
    /// or input-equal output: the flow then has no dangling pad to
    /// reject.
    fn is_well_formed(&self) -> bool {
        let n = self.num_inputs;
        let rows: Vec<Vec<bool>> = (0..1u32 << n)
            .map(|p| self.eval(&(0..n).map(|i| p >> i & 1 == 1).collect::<Vec<_>>()))
            .collect();
        let depends = |out: usize, input: usize| {
            (0..1usize << n).any(|p| rows[p][out] != rows[p ^ (1 << input)][out])
        };
        (0..n).all(|i| depends(0, i))
            && (0..self.outputs.len()).all(|o| (0..n).filter(|&i| depends(o, i)).count() >= 2)
    }

    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    fn signal_name(&self, s: usize) -> String {
        if s < self.num_inputs {
            format!("x{s}")
        } else {
            format!("w{}", s - self.num_inputs)
        }
    }

    fn operand_text(&self, o: Operand) -> String {
        let name = self.signal_name(o.signal);
        if o.negated {
            format!("~{name}")
        } else {
            name
        }
    }

    /// The netlist as gate-level Verilog module `name`.
    pub fn to_verilog(&self, name: &str) -> String {
        let inputs: Vec<String> = (0..self.num_inputs).map(|i| format!("x{i}")).collect();
        let outputs: Vec<String> = (0..self.outputs.len()).map(|i| format!("y{i}")).collect();
        let wires: Vec<String> = (0..self.gates.len()).map(|k| format!("w{k}")).collect();
        let mut text = format!(
            "module {name} ({}, {});\n  input {};\n  output {};\n  wire {};\n",
            inputs.join(", "),
            outputs.join(", "),
            inputs.join(", "),
            outputs.join(", "),
            wires.join(", ")
        );
        for (k, g) in self.gates.iter().enumerate() {
            text.push_str(&format!(
                "  assign w{k} = {} {} {};\n",
                self.operand_text(g.a),
                g.op.verilog(),
                self.operand_text(g.b)
            ));
        }
        for (i, &s) in self.outputs.iter().enumerate() {
            text.push_str(&format!("  assign y{i} = {};\n", self.signal_name(s)));
        }
        text.push_str("endmodule\n");
        text
    }

    /// The netlist as a BLIF model `name`: one `.names` cover per gate
    /// (the on-set rows of its complemented-operand truth table) and a
    /// buffer cover per output.
    pub fn to_blif(&self, name: &str) -> String {
        let inputs: Vec<String> = (0..self.num_inputs).map(|i| format!("x{i}")).collect();
        let outputs: Vec<String> = (0..self.outputs.len()).map(|i| format!("y{i}")).collect();
        let mut text = format!(
            ".model {name}\n.inputs {}\n.outputs {}\n",
            inputs.join(" "),
            outputs.join(" ")
        );
        for (k, g) in self.gates.iter().enumerate() {
            text.push_str(&format!(
                ".names {} {} w{k}\n",
                self.signal_name(g.a.signal),
                self.signal_name(g.b.signal)
            ));
            for row in 0..4u32 {
                let (va, vb) = (row & 2 == 2, row & 1 == 1);
                if g.op.apply(va ^ g.a.negated, vb ^ g.b.negated) {
                    text.push_str(&format!("{}{} 1\n", u8::from(va), u8::from(vb)));
                }
            }
        }
        for (i, &s) in self.outputs.iter().enumerate() {
            text.push_str(&format!(".names {} y{i}\n1 1\n", self.signal_name(s)));
        }
        text.push_str(".end\n");
        text
    }
}

impl Function for Generated {
    fn inputs(&self) -> Vec<String> {
        (0..self.num_inputs).map(|i| format!("x{i}")).collect()
    }

    fn outputs(&self) -> Vec<String> {
        (0..self.outputs.len()).map(|i| format!("y{i}")).collect()
    }

    fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let mut values = inputs.to_vec();
        for g in &self.gates {
            let a = values[g.a.signal] ^ g.a.negated;
            let b = values[g.b.signal] ^ g.b.negated;
            values.push(g.op.apply(a, b));
        }
        self.outputs.iter().map(|&s| values[s]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_text_parses_to_the_generator_function() {
        let mut rng = Rng::new(11);
        for i in 0..40 {
            let g = Generated::generate(&mut rng, 3 + i % 4);
            let (_, v) = fcn_logic::verilog::parse_verilog(&g.to_verilog(&format!("g{i}")))
                .expect("generated Verilog parses");
            let (_, b) = fcn_logic::blif::parse_blif(&g.to_blif(&format!("g{i}")))
                .expect("generated BLIF parses");
            assert_eq!(check_xag(&v, &g), Ok(()), "{}", g.to_verilog("g"));
            assert_eq!(check_xag(&b, &g), Ok(()), "{}", g.to_blif("g"));
        }
    }

    #[test]
    fn table1_functions_match_the_shipped_netlists() {
        for name in bestagon_core::benchmark_names() {
            let Some(f) = table1_function(name) else {
                continue;
            };
            let xag = bestagon_core::benchmark(name).xag;
            assert_eq!(check_xag(&xag, &f), Ok(()), "{name}");
        }
    }
}
