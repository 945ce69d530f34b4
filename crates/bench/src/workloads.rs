//! The workload generator behind the magic-sets ablation.

use lbtrust_datalog::{Database, Symbol, Value};

/// An access-control EDB for the magic-sets ablation (A2): `users`
/// principals, each owning `files_per_user` files, a delegation chain of
/// length `chain`, and the recursive access policy.
pub struct AccessWorkload {
    /// The EDB.
    pub db: Database,
    /// The policy rules (source).
    pub program: &'static str,
    /// A principal at the end of the delegation chain (the selective
    /// query target).
    pub target_user: Value,
}

/// See [`AccessWorkload`].
pub fn access_workload(users: usize, files_per_user: usize, chain: usize) -> AccessWorkload {
    let mut db = Database::new();
    let owns = Symbol::intern("owns");
    let mode = Symbol::intern("mode");
    let delegated = Symbol::intern("delegated");
    for u in 0..users {
        for f in 0..files_per_user {
            db.insert(
                owns,
                vec![
                    Value::sym(&format!("u{u}")),
                    Value::sym(&format!("f{u}_{f}")),
                ],
            );
        }
    }
    for m in ["read", "write"] {
        db.insert(mode, vec![Value::sym(m)]);
    }
    // u0 delegates down a chain of fresh principals.
    for c in 0..chain {
        let from = if c == 0 {
            "u0".to_string()
        } else {
            format!("d{}", c - 1)
        };
        db.insert(
            delegated,
            vec![Value::sym(&from), Value::sym(&format!("d{c}"))],
        );
    }
    AccessWorkload {
        db,
        program: "\
            access(P,O,M) <- owns(P,O), mode(M).\n\
            access(P,O,M) <- delegated(Q,P), access(Q,O,M).\n",
        target_user: Value::sym(&format!("d{}", chain.saturating_sub(1))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbtrust_datalog::{parse_program, Builtins, Engine};

    #[test]
    fn access_workload_shape() {
        let w = access_workload(10, 3, 4);
        assert_eq!(w.db.count(Symbol::intern("owns")), 30);
        assert_eq!(w.db.count(Symbol::intern("delegated")), 4);
        assert_eq!(w.target_user, Value::sym("d3"));
        // The chained principal can access u0's files.
        let program = parse_program(w.program).unwrap();
        let mut db = w.db.clone();
        Engine::new(&program.rules, &Builtins::new())
            .run(&mut db)
            .unwrap();
        assert!(db.contains(
            Symbol::intern("access"),
            &[Value::sym("d3"), Value::sym("f0_0"), Value::sym("read")]
        ));
    }
}
