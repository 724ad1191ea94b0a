//! Pattern → PCEA compilation.
//!
//! Compilation is compositional over *fragments*. A fragment is a set of
//! **alternatives** (disjunction); each alternative is a set of
//! **anchors** (parallel conjuncts); an anchor is an automaton state
//! whose stored runs represent completed sub-matches, together with the
//! possible shapes of the run's *last tuple* (its completions) — the
//! only tuple equality predicates can reach.
//!
//! * **atom** — one state, one `∅`-source transition.
//! * **iteration** `a+` — one state with a chain transition back into
//!   itself, correlated on the atom's named variables; wildcards vary
//!   per instance.
//! * **conjunction** — alternatives multiply, anchor sets concatenate;
//!   nothing is merged until a later tuple gathers the anchors (the
//!   model's parallelization).
//! * **sequencing** `P ; Q` — every transition completing `Q` is cloned
//!   with extra sources: the anchors of `P` (soft sequencing — `P`
//!   completes before `Q` completes). Cloning into a fresh state keeps
//!   "`Q` after `P`" apart from bare `Q`.
//! * **top level** — conjunction alternatives are merged HCQ-style:
//!   whichever conjunct completes last gathers the others.
//!
//! Joins are always between a gathering tuple and the *last* tuples of
//! the gathered runs, so a variable can only correlate sub-patterns if
//! it appears in their completing atoms. The compiler rejects patterns
//! violating this *anchoring discipline*
//! ([`LangError::UnanchoredCorrelation`]) — the language-level analogue
//! of Theorem 4.2's hierarchy boundary.

use crate::ast::{PTerm, PVar, Pattern, PatternAtom, PatternExpr};
use crate::parser::LangError;
use cer_automata::pcea::{Pcea, PceaBuilder, StateId};
use cer_automata::predicate::{
    AtomPattern, EqPredicate, ExtractorEntry, KeyExtractor, PatTerm, UnaryPredicate,
};
use cer_automata::valuation::{Label, LabelSet, MAX_LABELS};
use cer_common::hash::FxHashMap;
use cer_common::{RelationId, Schema};

/// A compiled pattern.
#[derive(Clone, Debug)]
pub struct CompiledPattern {
    /// The automaton; label `i` marks positions matched by the pattern's
    /// `i`-th atom (pre-order).
    pub pcea: Pcea,
    /// Atom spellings, label order.
    pub atom_names: Vec<String>,
    /// State names (post-pruning), index order.
    pub state_names: Vec<String>,
}

/// Compile a parsed pattern to an unambiguous PCEA.
///
/// ```
/// use cer_common::Schema;
/// use cer_lang::{compile_pattern, parse_pattern};
///
/// let mut schema = Schema::new();
/// let expr = parse_pattern(&mut schema, "T(x) && S(x, y) ; R(x, y)").unwrap();
/// let compiled = compile_pattern(&schema, &expr).unwrap();
/// assert_eq!(compiled.pcea.num_labels(), 3);
/// ```
pub fn compile_pattern(schema: &Schema, expr: &PatternExpr) -> Result<CompiledPattern, LangError> {
    let num_atoms = expr.pattern.atoms().len();
    if num_atoms > MAX_LABELS {
        return Err(LangError::TooManyAtoms { got: num_atoms });
    }
    let mut c = Compiler {
        schema,
        expr,
        num_vars: expr.var_names.len() as u32,
        next_atom: 0,
        num_states: 0,
        state_names: Vec::new(),
        transitions: Vec::new(),
    };
    let frag = c.compile(&expr.pattern)?;
    let finals = c.finalize(frag)?;
    Ok(c.assemble(num_atoms, finals, expr))
}

/// Convenience: parse and compile in one step.
pub fn pattern_to_pcea(schema: &mut Schema, text: &str) -> Result<CompiledPattern, LangError> {
    let expr = crate::parser::parse_pattern(schema, text)?;
    compile_pattern(schema, &expr)
}

/// The shape of a run's last tuple at an anchor state.
#[derive(Clone, Debug)]
struct Completion {
    relation: RelationId,
    /// Variable → first position in the completing atom (sorted by var).
    var_pos: Vec<(PVar, usize)>,
}

fn completion_of(atom: &PatternAtom) -> Completion {
    let mut var_pos: Vec<(PVar, usize)> = atom
        .variables()
        .into_iter()
        .map(|v| (v, atom.position_of(v).expect("variable occurs")))
        .collect();
    var_pos.sort();
    Completion {
        relation: atom.relation,
        var_pos,
    }
}

/// A state holding completed sub-matches.
#[derive(Clone, Debug)]
struct Anchor {
    state: StateId,
    completions: Vec<Completion>,
    /// Variables present in every completion (sorted): the joinable set.
    anchored: Vec<PVar>,
    /// All variables of the sub-pattern (sorted).
    vars: Vec<PVar>,
}

/// A compiled sub-pattern: alternatives (OR) of anchor sets (AND).
#[derive(Clone, Debug)]
struct Frag {
    alts: Vec<Vec<Anchor>>,
    vars: Vec<PVar>,
}

/// A transition under construction.
#[derive(Clone, Debug)]
struct TransSpec {
    sources: Vec<(StateId, EqPredicate)>,
    unary: UnaryPredicate,
    labels: LabelSet,
    target: StateId,
    /// Pattern-atom index the transition reads (for join cloning).
    atom_idx: usize,
    /// Variables absorbed by runs ending with this transition.
    scope_vars: Vec<PVar>,
}

struct Compiler<'a> {
    schema: &'a Schema,
    expr: &'a PatternExpr,
    num_vars: u32,
    next_atom: usize,
    num_states: usize,
    state_names: Vec<String>,
    transitions: Vec<TransSpec>,
}

fn sorted_union(a: &[PVar], b: &[PVar]) -> Vec<PVar> {
    let mut out = a.to_vec();
    out.extend_from_slice(b);
    out.sort();
    out.dedup();
    out
}

impl<'a> Compiler<'a> {
    fn new_state(&mut self, name: String) -> StateId {
        self.num_states += 1;
        self.state_names.push(name);
        StateId(self.num_states as u32 - 1)
    }

    /// `U` for a pattern atom: relation + repeated-variable/constant
    /// consistency + value filters. Wildcards get fresh pattern-variable
    /// indices so they constrain nothing.
    fn atom_unary(&self, atom: &PatternAtom) -> UnaryPredicate {
        let terms: Vec<PatTerm> = atom
            .args
            .iter()
            .enumerate()
            .map(|(k, t)| match t {
                PTerm::Var(v) => PatTerm::Var(v.0),
                PTerm::Wildcard => PatTerm::Var(self.num_vars + k as u32),
                PTerm::Const(c) => PatTerm::Const(c.clone()),
            })
            .collect();
        let mut u = UnaryPredicate::Atom(AtomPattern {
            relation: atom.relation,
            terms: terms.into(),
        });
        for f in &atom.filters {
            u = u.and(UnaryPredicate::Cmp {
                pos: f.pos,
                op: f.op,
                value: f.value.clone(),
            });
        }
        u
    }

    fn compile(&mut self, p: &Pattern) -> Result<Frag, LangError> {
        match p {
            Pattern::Atom(a) => self.compile_atom(a),
            Pattern::Iter(body) => match &**body {
                Pattern::Atom(a) => self.compile_iter(a),
                _ => Err(LangError::IterationBody),
            },
            Pattern::Conj(ps) => {
                let frags: Vec<Frag> = ps
                    .iter()
                    .map(|p| self.compile(p))
                    .collect::<Result<_, _>>()?;
                let mut alts: Vec<Vec<Anchor>> = vec![Vec::new()];
                let mut vars: Vec<PVar> = Vec::new();
                for f in frags {
                    vars = sorted_union(&vars, &f.vars);
                    let mut next = Vec::with_capacity(alts.len() * f.alts.len());
                    for base in &alts {
                        for pick in &f.alts {
                            let mut merged = base.clone();
                            merged.extend(pick.iter().cloned());
                            next.push(merged);
                        }
                    }
                    alts = next;
                }
                Ok(Frag { alts, vars })
            }
            Pattern::Disj(ps) => {
                let mut alts = Vec::new();
                let mut vars = Vec::new();
                for p in ps {
                    let f = self.compile(p)?;
                    vars = sorted_union(&vars, &f.vars);
                    alts.extend(f.alts);
                }
                Ok(Frag { alts, vars })
            }
            Pattern::Seq(p, q) => {
                let fp = self.compile(p)?;
                let fq = self.compile(q)?;
                let vars = sorted_union(&fp.vars, &fq.vars);
                let alts = self.gather(fq.alts, &fp.alts)?;
                Ok(Frag { alts, vars })
            }
        }
    }

    fn compile_atom(&mut self, a: &PatternAtom) -> Result<Frag, LangError> {
        let idx = self.next_atom;
        self.next_atom += 1;
        let state = self.new_state(self.expr.atom_names[idx].clone());
        let mut vars = a.variables();
        vars.sort();
        self.transitions.push(TransSpec {
            sources: Vec::new(),
            unary: self.atom_unary(a),
            labels: LabelSet::singleton(Label(idx as u32)),
            target: state,
            atom_idx: idx,
            scope_vars: vars.clone(),
        });
        Ok(Frag {
            alts: vec![vec![Anchor {
                state,
                completions: vec![completion_of(a)],
                anchored: vars.clone(),
                vars: vars.clone(),
            }]],
            vars,
        })
    }

    fn compile_iter(&mut self, a: &PatternAtom) -> Result<Frag, LangError> {
        let idx = self.next_atom;
        self.next_atom += 1;
        let state = self.new_state(format!("{}+", self.expr.atom_names[idx]));
        let mut vars = a.variables();
        vars.sort();
        // First instance.
        self.transitions.push(TransSpec {
            sources: Vec::new(),
            unary: self.atom_unary(a),
            labels: LabelSet::singleton(Label(idx as u32)),
            target: state,
            atom_idx: idx,
            scope_vars: vars.clone(),
        });
        // Subsequent instances: correlate consecutive completing tuples
        // on the named variables (wildcards vary per instance).
        let positions: Box<[usize]> = vars
            .iter()
            .map(|&v| a.position_of(v).expect("variable occurs"))
            .collect();
        let pred = EqPredicate::new(
            KeyExtractor::projection(a.relation, positions.clone()),
            KeyExtractor::projection(a.relation, positions),
        );
        self.transitions.push(TransSpec {
            sources: vec![(state, pred)],
            unary: self.atom_unary(a),
            labels: LabelSet::singleton(Label(idx as u32)),
            target: state,
            atom_idx: idx,
            scope_vars: vars.clone(),
        });
        Ok(Frag {
            alts: vec![vec![Anchor {
                state,
                completions: vec![completion_of(a)],
                anchored: vars.clone(),
                vars: vars.clone(),
            }]],
            vars,
        })
    }

    /// Clone the completing transitions of each `target_alts` alternative
    /// so they also gather one `context_alts` alternative (and, when the
    /// alternative is a conjunction, the sibling anchors — whichever
    /// conjunct completes last gathers the rest).
    fn gather(
        &mut self,
        target_alts: Vec<Vec<Anchor>>,
        context_alts: &[Vec<Anchor>],
    ) -> Result<Vec<Vec<Anchor>>, LangError> {
        let contexts: Vec<Vec<Anchor>> = if context_alts.is_empty() {
            vec![Vec::new()]
        } else {
            context_alts.to_vec()
        };
        let mut out: Vec<Vec<Anchor>> = Vec::new();
        for alt in &target_alts {
            for ctx in &contexts {
                if alt.len() == 1 && ctx.is_empty() {
                    out.push(alt.clone());
                    continue;
                }
                for (i, completer) in alt.iter().enumerate() {
                    let extras: Vec<&Anchor> = alt
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, a)| a)
                        .chain(ctx.iter())
                        .collect();
                    // Completing transitions of the completer, as they
                    // stand now (clones created below target fresh
                    // states, never re-enter this list).
                    let completing: Vec<usize> = (0..self.transitions.len())
                        .filter(|&k| self.transitions[k].target == completer.state)
                        .collect();
                    let fresh = self.new_state(format!(
                        "⟨{} last⟩",
                        self.state_names[completer.state.index()]
                    ));
                    let mut completions: Vec<Completion> = Vec::new();
                    let mut all_vars = completer.vars.clone();
                    for &k in &completing {
                        let spec = self.transitions[k].clone();
                        let mut augmented = self.attach(spec, &extras)?;
                        augmented.target = fresh;
                        let comp = completion_of(self.atoms()[augmented.atom_idx]);
                        if !completions
                            .iter()
                            .any(|c| c.relation == comp.relation && c.var_pos == comp.var_pos)
                        {
                            completions.push(comp);
                        }
                        self.transitions.push(augmented);
                    }
                    for x in &extras {
                        all_vars = sorted_union(&all_vars, &x.vars);
                    }
                    let anchored = anchored_of(&completions);
                    out.push(vec![Anchor {
                        state: fresh,
                        completions,
                        anchored,
                        vars: all_vars,
                    }]);
                }
            }
        }
        Ok(out)
    }

    /// Add `extras` as sources to a transition, with equality joins
    /// between the transition's atom and each extra's completing tuples.
    fn attach(&self, mut spec: TransSpec, extras: &[&Anchor]) -> Result<TransSpec, LangError> {
        let atom = self.atoms()[spec.atom_idx];
        let atom_vars = atom.variables();
        for x in extras {
            // J: variables joinable through last tuples.
            let j: Vec<PVar> = x
                .anchored
                .iter()
                .copied()
                .filter(|&v| atom.position_of(v).is_some())
                .collect();
            // Anchoring discipline 1: every variable shared between the
            // gathering atom and the anchor must be joinable.
            if let Some(v) = atom_vars
                .iter()
                .find(|v| x.vars.contains(v) && !j.contains(v))
            {
                return Err(LangError::UnanchoredCorrelation {
                    variable: self.expr.var_name(*v).to_string(),
                });
            }
            // Anchoring discipline 2: variables shared between the anchor
            // and anything already gathered must flow through this atom.
            if let Some(v) = x
                .vars
                .iter()
                .find(|v| spec.scope_vars.contains(v) && atom.position_of(**v).is_none())
            {
                return Err(LangError::UnanchoredCorrelation {
                    variable: self.expr.var_name(*v).to_string(),
                });
            }
            // Left key: per completing relation, J's positions there.
            let mut left = KeyExtractor::new();
            let mut layouts: FxHashMap<RelationId, Box<[usize]>> = FxHashMap::default();
            for c in &x.completions {
                let key: Box<[usize]> = j
                    .iter()
                    .map(|v| {
                        c.var_pos
                            .iter()
                            .find(|(u, _)| u == v)
                            .map(|(_, p)| *p)
                            .expect("anchored variable occurs in every completion")
                    })
                    .collect();
                if let Some(prev) = layouts.get(&c.relation) {
                    if prev != &key {
                        return Err(LangError::AmbiguousAnchor {
                            relation: self.schema.name(c.relation).to_string(),
                        });
                    }
                    continue;
                }
                layouts.insert(c.relation, key.clone());
                left.insert(
                    c.relation,
                    ExtractorEntry {
                        checks: Box::new([]),
                        key,
                    },
                );
            }
            let right: Box<[usize]> = j
                .iter()
                .map(|&v| atom.position_of(v).expect("v ∈ vars(atom)"))
                .collect();
            spec.sources.push((
                x.state,
                EqPredicate::new(left, KeyExtractor::projection(atom.relation, right)),
            ));
            spec.scope_vars = sorted_union(&spec.scope_vars, &x.vars);
        }
        Ok(spec)
    }

    fn atoms(&self) -> Vec<&'a PatternAtom> {
        self.expr.pattern.atoms()
    }

    /// Top-level merge: every alternative becomes a single final anchor.
    fn finalize(&mut self, frag: Frag) -> Result<Vec<StateId>, LangError> {
        let merged = self.gather(frag.alts, &[])?;
        Ok(merged
            .into_iter()
            .flat_map(|alt| alt.into_iter().map(|a| a.state))
            .collect())
    }

    /// Build the PCEA, pruning states and transitions that cannot
    /// contribute to any accepting run.
    fn assemble(
        self,
        num_atoms: usize,
        finals: Vec<StateId>,
        expr: &PatternExpr,
    ) -> CompiledPattern {
        // Usefulness: a transition is useful iff its target is; a state
        // is useful iff it is final or feeds a useful transition.
        let mut useful_state = vec![false; self.num_states];
        for &f in &finals {
            useful_state[f.index()] = true;
        }
        let mut changed = true;
        let mut useful_trans = vec![false; self.transitions.len()];
        while changed {
            changed = false;
            for (k, t) in self.transitions.iter().enumerate() {
                if useful_trans[k] || !useful_state[t.target.index()] {
                    continue;
                }
                useful_trans[k] = true;
                changed = true;
                for (s, _) in &t.sources {
                    if !useful_state[s.index()] {
                        useful_state[s.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        // Remap surviving states densely.
        let mut remap: Vec<Option<StateId>> = vec![None; self.num_states];
        let mut builder = PceaBuilder::new(num_atoms);
        let mut state_names = Vec::new();
        for q in 0..self.num_states {
            if useful_state[q] {
                remap[q] = Some(builder.add_state());
                state_names.push(self.state_names[q].clone());
            }
        }
        for (k, t) in self.transitions.iter().enumerate() {
            if !useful_trans[k] {
                continue;
            }
            builder.add_transition(
                t.sources
                    .iter()
                    .map(|(s, b)| (remap[s.index()].expect("useful source"), b.clone()))
                    .collect(),
                t.unary.clone(),
                t.labels,
                remap[t.target.index()].expect("useful target"),
            );
        }
        for f in finals {
            builder.mark_final(remap[f.index()].expect("finals are useful"));
        }
        CompiledPattern {
            pcea: builder.build(),
            atom_names: expr.atom_names.clone(),
            state_names,
        }
    }
}

fn anchored_of(completions: &[Completion]) -> Vec<PVar> {
    let Some(first) = completions.first() else {
        return Vec::new();
    };
    first
        .var_pos
        .iter()
        .map(|(v, _)| *v)
        .filter(|v| {
            completions[1..]
                .iter()
                .all(|c| c.var_pos.iter().any(|(u, _)| u == v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use cer_automata::pcea::paper_p0;
    use cer_automata::reference::ReferenceEval;
    use cer_common::tuple::tup;
    use cer_common::{Tuple, Value};

    fn compile(text: &str) -> (Schema, CompiledPattern) {
        let mut schema = Schema::new();
        let expr = parse_pattern(&mut schema, text).unwrap();
        let c = compile_pattern(&schema, &expr).unwrap();
        (schema, c)
    }

    fn outputs_per_position(
        pcea: &Pcea,
        stream: &[Tuple],
    ) -> Vec<Vec<cer_automata::valuation::Valuation>> {
        let eval = ReferenceEval::new(pcea, stream);
        (0..stream.len()).map(|n| eval.outputs_at(n)).collect()
    }

    #[test]
    fn p0_pattern_reproduces_paper_p0() {
        // The language expression for Figure 1's PCEA.
        let (schema, c) = compile("T(x) && S(x, y) ; R(x, y)");
        let r = schema.relation("R").unwrap();
        let s = schema.relation("S").unwrap();
        let t = schema.relation("T").unwrap();
        // Label order differs from paper_p0's (both use {●}? ours has 3
        // labels) — compare output *positions* instead.
        let stream = cer_common::gen::sigma0_prefix(r, s, t);
        let ours = ReferenceEval::new(&c.pcea, &stream);
        let paper = paper_p0(r, s, t);
        let theirs = ReferenceEval::new(&paper, &stream);
        for n in 0..stream.len() {
            let mut a: Vec<Vec<u64>> = ours
                .outputs_at(n)
                .iter()
                .map(|v| v.entries().map(|(_, p)| p).collect())
                .collect();
            let mut b: Vec<Vec<u64>> = theirs
                .outputs_at(n)
                .iter()
                .map(|v| v.entries().map(|(_, p)| p).collect())
                .collect();
            for v in a.iter_mut().chain(b.iter_mut()) {
                v.sort_unstable();
            }
            a.sort();
            b.sort();
            assert_eq!(a, b, "position {n}");
        }
        ours.check_unambiguous().unwrap();
    }

    #[test]
    fn sequencing_is_order_sensitive() {
        let (schema, c) = compile("A(x) ; B(x)");
        let a = schema.relation("A").unwrap();
        let b = schema.relation("B").unwrap();
        let good = vec![tup(a, [1i64]), tup(b, [1i64])];
        let bad = vec![tup(b, [1i64]), tup(a, [1i64])];
        assert_eq!(outputs_per_position(&c.pcea, &good)[1].len(), 1);
        let none = outputs_per_position(&c.pcea, &bad);
        assert!(none.iter().all(Vec::is_empty), "B before A must not match");
    }

    #[test]
    fn correlation_enforced() {
        let (schema, c) = compile("A(x) ; B(x)");
        let a = schema.relation("A").unwrap();
        let b = schema.relation("B").unwrap();
        let mismatch = vec![tup(a, [1i64]), tup(b, [2i64])];
        assert!(outputs_per_position(&c.pcea, &mismatch)
            .iter()
            .all(Vec::is_empty));
    }

    #[test]
    fn disjunction_marks_the_branch() {
        let (schema, c) = compile("A(x) | B(x)");
        let a = schema.relation("A").unwrap();
        let b = schema.relation("B").unwrap();
        let stream = vec![tup(a, [1i64]), tup(b, [2i64])];
        let outs = outputs_per_position(&c.pcea, &stream);
        assert_eq!(outs[0].len(), 1);
        assert_eq!(outs[1].len(), 1);
        // Branch A marks label 0, branch B label 1.
        assert_eq!(outs[0][0].get(Label(0)), &[0]);
        assert!(outs[0][0].get(Label(1)).is_empty());
        assert_eq!(outs[1][0].get(Label(1)), &[1]);
    }

    #[test]
    fn conjunction_any_order() {
        let (schema, c) = compile("A(x) && B(x)");
        let a = schema.relation("A").unwrap();
        let b = schema.relation("B").unwrap();
        for stream in [
            vec![tup(a, [1i64]), tup(b, [1i64])],
            vec![tup(b, [1i64]), tup(a, [1i64])],
        ] {
            let outs = outputs_per_position(&c.pcea, &stream);
            assert_eq!(outs[1].len(), 1, "conjunction matches either order");
        }
    }

    #[test]
    fn iteration_enumerates_all_chains() {
        let (schema, c) = compile("A(x)+");
        let a = schema.relation("A").unwrap();
        // Three matching A(1)s: chains ending at n are subsets containing
        // position n: 1, 2, 4 outputs.
        let stream = vec![tup(a, [1i64]), tup(a, [1i64]), tup(a, [1i64])];
        let outs = outputs_per_position(&c.pcea, &stream);
        assert_eq!(outs.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 2, 4]);
        ReferenceEval::new(&c.pcea, &stream)
            .check_unambiguous()
            .unwrap();
    }

    #[test]
    fn iteration_correlates_named_vars_only() {
        let (schema, c) = compile("S(x, _)+");
        let s = schema.relation("S").unwrap();
        // Same x, varying second column: still chains.
        let stream = vec![tup(s, [1i64, 10]), tup(s, [1i64, 20]), tup(s, [2i64, 30])];
        let outs = outputs_per_position(&c.pcea, &stream);
        // n=0: {0}; n=1: {1}, {0,1}; n=2: {2} only (x differs).
        assert_eq!(outs.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 2, 1]);
    }

    #[test]
    fn filters_restrict_matches() {
        let (schema, c) = compile("BUY(x, _)[1 > 100]");
        let b = schema.relation("BUY").unwrap();
        let stream = vec![tup(b, [1i64, 50]), tup(b, [1i64, 150])];
        let outs = outputs_per_position(&c.pcea, &stream);
        assert_eq!(outs.iter().map(Vec::len).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn seq_then_iteration() {
        let (schema, c) = compile("ALERT(x) ; BUY(x, _)+");
        let alert = schema.relation("ALERT").unwrap();
        let buy = schema.relation("BUY").unwrap();
        let stream = vec![
            tup(buy, [1i64, 10]), // before the alert: usable? chain may
            tup(alert, [1i64]),   // start before completion(ALERT) — soft
            tup(buy, [1i64, 20]), // sequencing demands only the *last*
            tup(buy, [1i64, 30]), // buy after the alert.
        ];
        let outs = outputs_per_position(&c.pcea, &stream);
        assert!(outs[0].is_empty() && outs[1].is_empty());
        // At n=2: chains ending at 2 containing the alert: {2}, {0,2}.
        assert_eq!(outs[2].len(), 2);
        // At n=3: chains ending at 3: {3}, {0,3}, {2,3}, {0,2,3}.
        assert_eq!(outs[3].len(), 4);
        ReferenceEval::new(&c.pcea, &stream)
            .check_unambiguous()
            .unwrap();
    }

    #[test]
    fn unanchored_correlation_rejected() {
        let mut schema = Schema::new();
        // y correlates S and R but the intermediate completing atom A(x)
        // cannot carry it.
        let expr = parse_pattern(&mut schema, "S(x, y) ; A(x) ; R(y)").unwrap();
        let err = compile_pattern(&schema, &expr).unwrap_err();
        assert!(matches!(err, LangError::UnanchoredCorrelation { variable } if variable == "y"));
    }

    #[test]
    fn pruning_removes_dead_states() {
        // In "A(x) ; B(x)", the bare B state is useless (only the
        // A-gathering clone is final).
        let (_, c) = compile("A(x) ; B(x)");
        // States: A, ⟨B last⟩ (bare B pruned).
        assert_eq!(c.pcea.num_states(), 2, "states: {:?}", c.state_names);
    }

    #[test]
    fn engine_agrees_with_reference_on_patterns() {
        use cer_core::Evaluator;
        use cer_core::StreamingEvaluator;
        let (schema, c) = compile("T(x) && S(x, y) ; R(x, y)");
        let r = schema.relation("R").unwrap();
        let s = schema.relation("S").unwrap();
        let t = schema.relation("T").unwrap();
        let stream = cer_common::gen::sigma0_prefix(r, s, t);
        let reference = ReferenceEval::new(&c.pcea, &stream);
        for w in [2u64, 4, 5, 100] {
            let mut engine = StreamingEvaluator::new(c.pcea.clone(), w);
            for (n, tu) in stream.iter().enumerate() {
                let mut got = engine.push_collect(tu);
                got.sort();
                got.dedup();
                assert_eq!(got, reference.windowed_outputs_at(n, w), "w={w} at {n}");
            }
        }
    }

    #[test]
    fn constants_in_atoms() {
        let (schema, c) = compile("S(2, y) ; R(y)");
        let s = schema.relation("S").unwrap();
        let r = schema.relation("R").unwrap();
        let stream = vec![
            tup(s, [2i64, 7]),
            tup(s, [3i64, 8]),
            tup(r, [7i64]),
            tup(r, [8i64]),
        ];
        let outs = outputs_per_position(&c.pcea, &stream);
        assert_eq!(outs[2].len(), 1, "S(2,7) ; R(7) matches");
        assert_eq!(outs[3].len(), 0, "S(3,8) fails the constant");
        let _ = Value::Int(0);
    }

    #[test]
    fn nested_disjunction_under_seq() {
        let (schema, c) = compile("(A(x) | B(x)) ; C(x)");
        let a = schema.relation("A").unwrap();
        let b = schema.relation("B").unwrap();
        let cc = schema.relation("C").unwrap();
        let stream = vec![tup(a, [1i64]), tup(b, [1i64]), tup(cc, [1i64])];
        let outs = outputs_per_position(&c.pcea, &stream);
        // C gathers the A-branch and the B-branch: two outputs at n=2.
        assert_eq!(outs[2].len(), 2);
        ReferenceEval::new(&c.pcea, &stream)
            .check_unambiguous()
            .unwrap();
    }

    #[test]
    fn three_way_conjunction_final() {
        let (schema, c) = compile("A(x) && B(x) && C(x)");
        let a = schema.relation("A").unwrap();
        let b = schema.relation("B").unwrap();
        let cc = schema.relation("C").unwrap();
        // All six orders match exactly once.
        let tuples = [tup(a, [1i64]), tup(b, [1i64]), tup(cc, [1i64])];
        for perm in [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let stream: Vec<Tuple> = perm.iter().map(|&i| tuples[i].clone()).collect();
            let outs = outputs_per_position(&c.pcea, &stream);
            assert_eq!(outs.iter().map(Vec::len).sum::<usize>(), 1, "{perm:?}");
            ReferenceEval::new(&c.pcea, &stream)
                .check_unambiguous()
                .unwrap();
        }
    }
}
