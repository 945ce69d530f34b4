//! An interactive LBTrust workspace — explore the dialect from a shell.
//!
//! ```text
//! cargo run -p lbtrust-tests --example repl
//! lbtrust> edge(a,b). edge(b,c).
//!   ok (2 new tuple(s))
//! lbtrust> reach(X,Y) <- edge(X,Y).
//!   ok (2 new tuple(s))
//! lbtrust> reach(X,Z) <- reach(X,Y), edge(Y,Z).
//!   ok (1 new tuple(s))
//! lbtrust> ?- reach(a, X).
//!   (a, b)
//!   (a, c)
//! lbtrust> :explain reach(a,c)
//! reach(a,c) [via reach(X,Z) <- reach(X,Y), edge(Y,Z).]
//!   ...
//! ```
//!
//! Commands: plain rules/facts/constraints are installed and evaluated,
//! and the line's count is the net of the tuples it added outside the
//! meta-model (the rules' own `rule`/`head`/`body`/… and `active` facts);
//! `?- atom.` lists the matching tuples of the fixpoint; `:explain fact`
//! prints a derivation; `:dump pred` prints a table; `:rules` lists the
//! active rules; `:quit` exits.

use lbtrust::metamodel::MetaPreds;
use lbtrust::Workspace;
use std::io::{BufRead, Write};

fn main() {
    let mut ws = Workspace::new("repl");
    let meta = MetaPreds::new();
    let mut hidden = meta.all().to_vec();
    hidden.push(meta.active);
    // Live tuples outside the meta-model's relations.
    let user_tuples = |ws: &Workspace| -> usize {
        let rels = ws.db().iter().filter(|(pred, _)| !hidden.contains(pred));
        rels.map(|(_, rel)| rel.len()).sum()
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    println!("LBTrust workspace (principal `repl`). :quit to exit.");
    loop {
        print!("lbtrust> ");
        stdout.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(":") {
            let mut parts = rest.splitn(2, ' ');
            match (parts.next().unwrap_or(""), parts.next().unwrap_or("")) {
                ("quit", _) | ("q", _) => break,
                ("rules", _) => {
                    for rule in ws.active_rules() {
                        println!("  {rule}");
                    }
                }
                ("dump", pred) if !pred.is_empty() => {
                    print!("{}", ws.dump(&[pred.trim()]));
                }
                ("explain", fact) if !fact.is_empty() => {
                    match ws.explain(fact.trim().trim_end_matches('.')) {
                        Ok(Some(proof)) => print!("{proof}"),
                        Ok(None) => println!("  does not hold"),
                        Err(e) => println!("  error: {e}"),
                    }
                }
                _ => println!("  commands: :rules  :dump <pred>  :explain <fact>  :quit"),
            }
            continue;
        }
        if let Some(goal) = line.strip_prefix("?-") {
            let goal = goal.trim().trim_end_matches('.');
            match ws.query_goal(goal) {
                Ok(answers) if answers.is_empty() => println!("  no"),
                Ok(answers) => {
                    for t in answers {
                        let row: Vec<String> = t.iter().map(ToString::to_string).collect();
                        println!("  ({})", row.join(", "));
                    }
                }
                Err(e) => println!("  error: {e}"),
            }
            continue;
        }
        let before = user_tuples(&ws);
        // Facts go through assert_src, everything else through load.
        let result = if looks_like_facts(line) {
            ws.assert_src(line)
        } else {
            ws.load("repl", line)
        };
        if let Err(e) = result {
            println!("  error: {e}");
            continue;
        }
        match ws.evaluate() {
            // A line can also retract (through negation): count the net
            // gain, never below zero.
            Ok(_) => {
                let added = user_tuples(&ws).saturating_sub(before);
                println!("  ok ({added} new tuple(s))");
            }
            Err(e) => println!("  rejected: {e}"),
        }
    }
}

/// Crude but effective: a statement without `<-`, `:-` or `->` is a fact
/// list.
fn looks_like_facts(line: &str) -> bool {
    !line.contains("<-") && !line.contains(":-") && !line.contains("->")
}
