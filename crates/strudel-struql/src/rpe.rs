//! Compilation of regular path expressions to ε-NFAs.
//!
//! StruQL's regular path expressions "are more general than regular
//! expressions, because they permit predicates on edges" (§3). We compile
//! them with the Thompson construction into an NFA whose alphabet is *edge
//! tests* ([`EdgeTest`]): a literal label, any label, or a named predicate
//! applied to the label. The evaluator then runs the product of the graph
//! and the NFA — this is how `p -> * -> q` computes reachability (transitive
//! closure) without ever materializing paths.
//!
//! For conditions whose *source* is unbound but whose *target* is bound, the
//! evaluator traverses the [`Nfa::reversed`] automaton over the graph's
//! reverse adjacency index, a plan the cost-based optimizer picks when it is
//! cheaper.

use crate::ast::Rpe;
use crate::pred::PredicateRegistry;
use strudel_graph::{Interner, Sym, Value};

/// A test applied to one edge label.
#[derive(Clone, Debug, PartialEq)]
pub enum EdgeTest {
    /// Any label matches.
    Any,
    /// Exactly this (interned) label.
    Label(Sym),
    /// A registered predicate applied to the label string.
    Pred(String),
}

impl EdgeTest {
    /// Whether an edge labeled `label` passes this test. `preds` resolves
    /// predicate names; an unknown predicate matches nothing.
    #[inline]
    pub fn matches(
        &self,
        label: Sym,
        resolve: &dyn Fn(Sym) -> Value,
        preds: &PredicateRegistry,
    ) -> bool {
        match self {
            EdgeTest::Any => true,
            EdgeTest::Label(l) => *l == label,
            EdgeTest::Pred(p) => {
                let v = resolve(label);
                preds.apply(p, &[&v]).unwrap_or(false)
            }
        }
    }
}

/// A nondeterministic finite automaton over edge tests.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// `eps[s]` = ε-successors of state `s`.
    eps: Vec<Vec<u32>>,
    /// `trans[s]` = labeled transitions out of state `s`.
    trans: Vec<Vec<(EdgeTest, u32)>>,
    start: u32,
    accept: Vec<bool>,
}

impl Nfa {
    /// Compiles an RPE. Literal labels are interned in `interner` so that
    /// matching is a symbol comparison.
    pub fn compile(rpe: &Rpe, interner: &Interner) -> Nfa {
        let mut b = Builder {
            eps: Vec::new(),
            trans: Vec::new(),
        };
        let frag = b.build(rpe, interner);
        let mut accept = vec![false; b.eps.len()];
        for a in frag.accepts {
            accept[a as usize] = true;
        }
        Nfa {
            eps: b.eps,
            trans: b.trans,
            start: frag.start,
            accept,
        }
    }

    /// The start state.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Whether `s` is accepting.
    #[inline]
    pub fn is_accept(&self, s: u32) -> bool {
        self.accept[s as usize]
    }

    /// ε-closure of one state (including itself), as a sorted list.
    pub fn eps_closure_of(&self, s: u32) -> Vec<u32> {
        let mut seen = vec![false; self.eps.len()];
        let mut stack = vec![s];
        let mut out = Vec::new();
        while let Some(t) = stack.pop() {
            if std::mem::replace(&mut seen[t as usize], true) {
                continue;
            }
            out.push(t);
            stack.extend(self.eps[t as usize].iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// The labeled transitions out of state `s`.
    #[inline]
    pub fn transitions(&self, s: u32) -> &[(EdgeTest, u32)] {
        &self.trans[s as usize]
    }

    /// The automaton recognizing the reverse language, used for backward
    /// traversal: transitions are flipped and start/accept exchanged (a
    /// fresh start state ε-links to every original accept state; the
    /// original start becomes the only accept state).
    pub fn reversed(&self) -> Nfa {
        let n = self.eps.len();
        let mut eps: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
        let mut trans: Vec<Vec<(EdgeTest, u32)>> = vec![Vec::new(); n + 1];
        for (s, succs) in self.eps.iter().enumerate() {
            for &t in succs {
                eps[t as usize].push(s as u32);
            }
        }
        for (s, succs) in self.trans.iter().enumerate() {
            for (test, t) in succs {
                trans[*t as usize].push((test.clone(), s as u32));
            }
        }
        let new_start = n as u32;
        for (s, acc) in self.accept.iter().enumerate() {
            if *acc {
                eps[new_start as usize].push(s as u32);
            }
        }
        let mut accept = vec![false; n + 1];
        accept[self.start as usize] = true;
        Nfa {
            eps,
            trans,
            start: new_start,
            accept,
        }
    }
}

struct Frag {
    start: u32,
    accepts: Vec<u32>,
}

struct Builder {
    eps: Vec<Vec<u32>>,
    trans: Vec<Vec<(EdgeTest, u32)>>,
}

impl Builder {
    fn new_state(&mut self) -> u32 {
        let s = self.eps.len() as u32;
        self.eps.push(Vec::new());
        self.trans.push(Vec::new());
        s
    }

    fn build(&mut self, rpe: &Rpe, interner: &Interner) -> Frag {
        match rpe {
            Rpe::Label(l) => self.leaf(EdgeTest::Label(interner.intern(l))),
            Rpe::AnyLabel => self.leaf(EdgeTest::Any),
            Rpe::Pred(p) => self.leaf(EdgeTest::Pred(p.clone())),
            Rpe::Seq(a, b) => {
                let fa = self.build(a, interner);
                let fb = self.build(b, interner);
                for s in fa.accepts {
                    self.eps[s as usize].push(fb.start);
                }
                Frag {
                    start: fa.start,
                    accepts: fb.accepts,
                }
            }
            Rpe::Alt(a, b) => {
                let fa = self.build(a, interner);
                let fb = self.build(b, interner);
                let start = self.new_state();
                self.eps[start as usize].push(fa.start);
                self.eps[start as usize].push(fb.start);
                let mut accepts = fa.accepts;
                accepts.extend(fb.accepts);
                Frag { start, accepts }
            }
            Rpe::Star(r) => {
                let fr = self.build(r, interner);
                let hub = self.new_state();
                self.eps[hub as usize].push(fr.start);
                for s in fr.accepts {
                    self.eps[s as usize].push(hub);
                }
                Frag {
                    start: hub,
                    accepts: vec![hub],
                }
            }
            Rpe::Plus(r) => {
                let fr = self.build(r, interner);
                for &s in &fr.accepts {
                    self.eps[s as usize].push(fr.start);
                }
                fr
            }
            Rpe::Opt(r) => {
                let fr = self.build(r, interner);
                let start = self.new_state();
                self.eps[start as usize].push(fr.start);
                let mut accepts = fr.accepts;
                accepts.push(start);
                Frag { start, accepts }
            }
        }
    }

    fn leaf(&mut self, test: EdgeTest) -> Frag {
        let a = self.new_state();
        let b = self.new_state();
        self.trans[a as usize].push((test, b));
        Frag {
            start: a,
            accepts: vec![b],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::fxhash::FxHashSet;

    /// Simulates the NFA over an explicit word of labels.
    fn accepts(nfa: &Nfa, interner: &Interner, preds: &PredicateRegistry, word: &[&str]) -> bool {
        let resolve = |s: Sym| Value::Str(interner.resolve(s));
        let mut states: FxHashSet<u32> = nfa.eps_closure_of(nfa.start()).into_iter().collect();
        for label in word {
            let sym = interner.intern(label);
            let mut next = FxHashSet::default();
            for &s in &states {
                for (test, t) in nfa.transitions(s) {
                    if test.matches(sym, &resolve, preds) {
                        next.extend(nfa.eps_closure_of(*t));
                    }
                }
            }
            states = next;
            if states.is_empty() {
                return false;
            }
        }
        states.iter().any(|&s| nfa.is_accept(s))
    }

    fn check(rpe: &Rpe, yes: &[&[&str]], no: &[&[&str]]) {
        let interner = Interner::new();
        let preds = PredicateRegistry::with_builtins();
        let nfa = Nfa::compile(rpe, &interner);
        for w in yes {
            assert!(
                accepts(&nfa, &interner, &preds, w),
                "{rpe} should accept {w:?}"
            );
        }
        for w in no {
            assert!(
                !accepts(&nfa, &interner, &preds, w),
                "{rpe} should reject {w:?}"
            );
        }
    }

    fn label(s: &str) -> Rpe {
        Rpe::Label(s.into())
    }

    #[test]
    fn single_label() {
        check(&label("a"), &[&["a"]], &[&[], &["b"], &["a", "a"]]);
    }

    #[test]
    fn any_label() {
        check(&Rpe::AnyLabel, &[&["a"], &["zzz"]], &[&[], &["a", "b"]]);
    }

    #[test]
    fn any_path_matches_empty() {
        let star = Rpe::any_path();
        check(&star, &[&[], &["a"], &["a", "b", "c"]], &[]);
        check(&label("a"), &[&["a"]], &[&[]]);
    }

    #[test]
    fn seq_alt_star() {
        // ("a" . "b")* | "c"
        let rpe = Rpe::Alt(
            Box::new(Rpe::Star(Box::new(Rpe::Seq(
                Box::new(label("a")),
                Box::new(label("b")),
            )))),
            Box::new(label("c")),
        );
        check(
            &rpe,
            &[&[], &["c"], &["a", "b"], &["a", "b", "a", "b"]],
            &[&["a"], &["b", "a"], &["c", "c"], &["a", "b", "a"]],
        );
    }

    #[test]
    fn plus_requires_one() {
        let rpe = Rpe::Plus(Box::new(label("a")));
        check(&rpe, &[&["a"], &["a", "a", "a"]], &[&[], &["b"]]);
    }

    #[test]
    fn opt_zero_or_one() {
        let rpe = Rpe::Opt(Box::new(label("a")));
        check(&rpe, &[&[], &["a"]], &[&["a", "a"], &["b"]]);
    }

    #[test]
    fn predicate_edges() {
        // startsWith is binary; use a custom unary predicate for labels.
        let mut preds = PredicateRegistry::new();
        preds.register("isName", 1, |args| {
            args[0].text().is_some_and(|t| t.starts_with("name"))
        });
        let interner = Interner::new();
        let nfa = Nfa::compile(&Rpe::Star(Box::new(Rpe::Pred("isName".into()))), &interner);
        assert!(accepts(&nfa, &interner, &preds, &["name1", "name2"]));
        assert!(!accepts(&nfa, &interner, &preds, &["name1", "other"]));
        assert!(accepts(&nfa, &interner, &preds, &[]));
    }

    #[test]
    fn unknown_predicate_matches_nothing() {
        let interner = Interner::new();
        let preds = PredicateRegistry::new();
        let nfa = Nfa::compile(&Rpe::Pred("mystery".into()), &interner);
        assert!(!accepts(&nfa, &interner, &preds, &["anything"]));
    }

    #[test]
    fn reversed_recognizes_reverse_language() {
        // "a" . "b"* reversed is "b"* . "a"
        let rpe = Rpe::Seq(
            Box::new(label("a")),
            Box::new(Rpe::Star(Box::new(label("b")))),
        );
        let interner = Interner::new();
        let preds = PredicateRegistry::with_builtins();
        let nfa = Nfa::compile(&rpe, &interner);
        let rev = nfa.reversed();
        assert!(accepts(&nfa, &interner, &preds, &["a", "b", "b"]));
        assert!(accepts(&rev, &interner, &preds, &["b", "b", "a"]));
        assert!(!accepts(&rev, &interner, &preds, &["a", "b"]));
    }

    #[test]
    fn reversed_preserves_empty_match() {
        let interner = Interner::new();
        let preds = PredicateRegistry::with_builtins();
        let reversed = |rpe: &Rpe| Nfa::compile(rpe, &interner).reversed();
        assert!(accepts(&reversed(&Rpe::any_path()), &interner, &preds, &[]));
        assert!(!accepts(&reversed(&label("x")), &interner, &preds, &[]));
    }
}
