//! Experiment A2: full bottom-up evaluation vs the magic-sets rewrite
//! for a *selective* access-control query — the paper's §7 "bridge"
//! between access-control-style goal evaluation and network-style
//! bottom-up evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lbtrust_bench::workloads::access_workload;
use lbtrust_datalog::ast::{Atom, Term};
use lbtrust_datalog::magic::query_magic;
use lbtrust_datalog::{parse_program, Builtins, Engine, Value};

fn goal_strategies(c: &mut Criterion) {
    let builtins = Builtins::new();
    let mut group = c.benchmark_group("ablation_magic");
    group.sample_size(10);
    for &users in &[50usize, 200] {
        let w = access_workload(users, 5, 4);
        let program = parse_program(w.program).unwrap();
        // Query: what can the chain-end principal access?
        let query = Atom::new(
            "access",
            vec![
                Term::Val(w.target_user.clone()),
                Term::var("O"),
                Term::Val(Value::sym("read")),
            ],
        );
        group.bench_with_input(BenchmarkId::new("bottom_up_full", users), &users, |b, _| {
            b.iter(|| {
                let mut db = w.db.clone();
                Engine::new(&program.rules, &builtins).run(&mut db).unwrap();
                db.count(lbtrust_datalog::Symbol::intern("access"))
            })
        });
        group.bench_with_input(BenchmarkId::new("magic_sets", users), &users, |b, _| {
            b.iter(|| {
                query_magic(&program.rules, &w.db, &query, &builtins)
                    .unwrap()
                    .0
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, goal_strategies);
criterion_main!(benches);
