//! Delegation thresholds (§4.2.2 of the paper): "a bank may consider a
//! customer's credit okay if at least three credit bureaus do" — plus the
//! weighted variant where bureaus have reliability factors.
//!
//! Run with: `cargo run -p lbtrust-tests --example credit_check`

use lbtrust::System;
use lbtrust_d1lp::D1lpPolicy;
use lbtrust_datalog::Symbol;

fn approve(sys: &mut System, bureau: &str, customer: &str) {
    let p = Symbol::intern(bureau);
    sys.workspace_mut(p)
        .unwrap()
        .load(
            &format!("approval-{customer}"),
            &format!("says(me,bank,[| creditOK({customer}). |]) <- checked({customer})."),
        )
        .unwrap();
    sys.workspace_mut(p)
        .unwrap()
        .assert_src(&format!("checked({customer})."))
        .unwrap();
}

fn main() {
    println!("== LBTrust credit check: k-of-n threshold delegation ==\n");

    // ---- unweighted: 3 of 4 bureaus must concur (wd0-wd2) -------------
    let mut sys = System::new().with_rsa_bits(512);
    sys.add_principal("bank", "hq").unwrap();
    for b in ["equifox", "experiun", "transonion", "smallshop"] {
        sys.add_principal(b, "bureau-dc").unwrap();
    }
    D1lpPolicy::new()
        .threshold("bank", "creditBureau", "creditOK", 3)
        .group_member("creditBureau", "equifox", 1)
        .group_member("creditBureau", "experiun", 1)
        .group_member("creditBureau", "transonion", 1)
        .group_member("creditBureau", "smallshop", 1)
        .apply_to(&mut sys)
        .unwrap();

    // customer1: three approvals. customer2: only two.
    for b in ["equifox", "experiun", "transonion"] {
        approve(&mut sys, b, "customer1");
    }
    for b in ["equifox", "smallshop"] {
        approve(&mut sys, b, "customer2");
    }
    sys.run_to_quiescence(32).unwrap();

    let bank = Symbol::intern("bank");
    println!("unweighted threshold (need 3 of 4):");
    for c in ["customer1", "customer2"] {
        let count = sys
            .workspace(bank)
            .unwrap()
            .tuples(Symbol::intern("creditOKCount"))
            .into_iter()
            .find(|t| t[0].to_string() == c)
            .map(|t| t[1].to_string())
            .unwrap_or_else(|| "0".into());
        let ok = sys
            .workspace(bank)
            .unwrap()
            .holds_src(&format!("creditOK({c})"))
            .unwrap();
        println!(
            "  {c}: {count} approvals -> {}",
            if ok { "credit OK" } else { "declined" }
        );
    }

    // ---- weighted: reliability factors (the paper's `total` variant) ---
    let mut sys = System::new().with_rsa_bits(512);
    sys.add_principal("bank", "hq").unwrap();
    for b in ["bigthree", "boutique"] {
        sys.add_principal(b, "bureau-dc").unwrap();
    }
    D1lpPolicy::new()
        .weighted_threshold("bank", "bureaus", "creditOK", 3)
        .group_member("bureaus", "bigthree", 3)
        .group_member("bureaus", "boutique", 1)
        .apply_to(&mut sys)
        .unwrap();
    approve(&mut sys, "boutique", "customer3"); // weight 1: not enough
    approve(&mut sys, "bigthree", "customer4"); // weight 3: enough alone
    sys.run_to_quiescence(32).unwrap();

    println!("\nweighted threshold (need total weight 3; bigthree=3, boutique=1):");
    for c in ["customer3", "customer4"] {
        let ok = sys
            .workspace(bank)
            .unwrap()
            .holds_src(&format!("creditOK({c})"))
            .unwrap();
        println!("  {c}: {}", if ok { "credit OK" } else { "declined" });
    }
}
