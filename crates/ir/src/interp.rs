//! The reference interpreter: the executable definition of what a
//! [`Program`] computes and accounts.
//!
//! [`Program::interpret`] runs a program under one precision assignment
//! the plainest way that is still exact. Arrays are reserved in
//! declaration order. Each [`Sweep`] or [`Reduce`] execution commits
//! its declared streams once, then evaluates its body element by
//! element. Values round only through [`RoundMode::apply`], and a
//! [`Stmt::Repeat`] is a plain loop. There is no hoisting, no fusion
//! and no vectorisation; compiled [`crate::Plan`]s are property-tested
//! against this interpreter for identical outputs and accounting.

use crate::plan::{ExecSink, StreamRt};
use crate::prog::{BinOp, ElemStmt, Expr, Program, Reduce, Stmt, StreamDecl, Sweep, UnOp};
use crate::round::{HalfFn, RoundMode};
use crate::Prec;

impl Program {
    /// Interprets this program under a precision assignment, emitting all
    /// accounting through `sink`, and returns the program output
    /// (emitted scalars in order, then the output arrays). Takes the same
    /// inputs as [`Program::compile`].
    pub fn interpret(
        &self,
        prec_of: &mut dyn FnMut(u32) -> Prec,
        half: HalfFn,
        sink: &mut dyn ExecSink,
    ) -> Vec<f64> {
        let mut arrays = Vec::with_capacity(self.arrays.len());
        for d in &self.arrays {
            let prec = prec_of(d.var);
            let base = sink.reserve(d.var, d.len, prec);
            let data = match d.init {
                Some(ci) => self.consts[ci]
                    .iter()
                    .map(|&v| prec.round_mode().apply(half, v))
                    .collect(),
                None => vec![0.0; d.len],
            };
            arrays.push(Array { base, prec, data });
        }
        let scal_modes: Vec<RoundMode> = self
            .scalars
            .iter()
            .map(|d| prec_of(d.var).round_mode())
            .collect();
        let scal0: Vec<f64> = self
            .scalars
            .iter()
            .zip(&scal_modes)
            .map(|(d, m)| m.apply(half, d.value))
            .collect();
        let mut it = Interp {
            half,
            arrays,
            scalars: scal0.clone(),
            scal0,
            scal_modes,
            out: Vec::new(),
        };
        it.run(&self.body, sink);
        for arr in &self.outputs {
            it.out.extend_from_slice(&it.arrays[arr.0 as usize].data);
        }
        it.out
    }
}

struct Array {
    base: u64,
    prec: Prec,
    data: Vec<f64>,
}

struct Interp {
    half: HalfFn,
    arrays: Vec<Array>,
    /// Current scalar values.
    scalars: Vec<f64>,
    /// Declared scalar values, rounded through their precisions.
    scal0: Vec<f64>,
    scal_modes: Vec<RoundMode>,
    out: Vec<f64>,
}

/// Element index `start + k * step`.
fn index(start: usize, step: i64, k: usize) -> usize {
    (start as i64 + k as i64 * step) as usize
}

impl Interp {
    fn run(&mut self, body: &[Stmt], sink: &mut dyn ExecSink) {
        for stmt in body {
            match stmt {
                Stmt::Charge {
                    heavy,
                    dst,
                    srcs,
                    amount,
                } => sink.charge(*heavy, *dst, srcs, *amount),
                Stmt::Sweep(s) => self.sweep(s, sink),
                Stmt::Reduce(r) => self.reduce(r, sink),
                Stmt::SetScalar(s) => self.scalars[s.0 as usize] = self.scal0[s.0 as usize],
                Stmt::EmitScalar(s) => self.out.push(self.scalars[s.0 as usize]),
                Stmt::Repeat { times, body } => {
                    for _ in 0..*times {
                        self.run(body, sink);
                    }
                }
            }
        }
    }

    fn commit(&self, decls: &[StreamDecl], count: usize, sink: &mut dyn ExecSink) {
        if count == 0 || decls.is_empty() {
            return;
        }
        let streams: Vec<StreamRt> = decls
            .iter()
            .map(|d| {
                let a = &self.arrays[d.arr.0 as usize];
                StreamRt::resolve(d, a.base, a.prec)
            })
            .collect();
        sink.commit_group(&streams, count);
    }

    fn sweep(&mut self, s: &Sweep, sink: &mut dyn ExecSink) {
        self.commit(&s.streams, s.count, sink);
        let mut locals = vec![0.0; s.locals as usize];
        for k in 0..s.count {
            for stmt in &s.body {
                match stmt {
                    ElemStmt::Let { local, expr } => {
                        locals[*local as usize] = self.eval(expr, k, &locals);
                    }
                    ElemStmt::LetScal { local, scal, expr } => {
                        let v = self.eval(expr, k, &locals);
                        let mode = self.scal_modes[scal.0 as usize];
                        locals[*local as usize] = mode.apply(self.half, v);
                    }
                    ElemStmt::Store {
                        arr,
                        start,
                        step,
                        expr,
                        local,
                    } => {
                        let v = self.eval(expr, k, &locals);
                        let a = &mut self.arrays[arr.0 as usize];
                        let v = a.prec.round_mode().apply(self.half, v);
                        a.data[index(*start, *step, k)] = v;
                        if let Some(l) = local {
                            locals[*l as usize] = v;
                        }
                    }
                }
            }
        }
    }

    fn reduce(&mut self, r: &Reduce, sink: &mut dyn ExecSink) {
        self.commit(&r.streams, r.count, sink);
        let acc = r.acc.0 as usize;
        for k in 0..r.count {
            let e = self.eval(&r.expr, k, &[]);
            self.scalars[acc] = self.scal_modes[acc].apply(self.half, self.scalars[acc] + e);
        }
    }

    fn eval(&self, e: &Expr, k: usize, locals: &[f64]) -> f64 {
        match e {
            Expr::Load { arr, start, step } => {
                self.arrays[arr.0 as usize].data[index(*start, *step, k)]
            }
            Expr::Scal(s) => self.scalars[s.0 as usize],
            Expr::Local(l) => locals[*l as usize],
            Expr::K(v) => *v,
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.eval(a, k, locals), self.eval(b, k, locals));
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Min => a.min(b),
                }
            }
            Expr::Un(UnOp::Exp, a) => self.eval(a, k, locals).exp(),
        }
    }
}
