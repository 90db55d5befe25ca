//! Hash-both-sides helper for "these bytes did not change" tests
//! (ROADMAP item 5; PR 15's method for 1.17 M output words, made
//! reusable): hash what the parent commit produces, check the table
//! in, and the change has to reproduce it unedited.

/// 64-bit FNV-1a over the little-endian bytes of `words`.
pub fn fnv1a(words: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Compare `actual` rows — `(input, variant, hash)` — with a checked-in
/// `golden` table, reporting every differing row at once.
pub fn assert_matches_golden(golden: &[(&str, &str, u64)], actual: &[(String, String, u64)]) {
    let mut wrong = Vec::new();
    for (i, (input, variant, hash)) in actual.iter().enumerate() {
        match golden.get(i) {
            Some(&(gi, gv, gh)) if gi == input && gv == variant && gh == *hash => {}
            Some(&(gi, gv, gh)) => wrong.push(format!(
                "row {i}: {input}/{variant} = {hash:#018x}, golden {gi}/{gv} = {gh:#018x}"
            )),
            None => wrong.push(format!("row {i}: {input}/{variant} has no golden row")),
        }
    }
    assert!(
        wrong.is_empty() && golden.len() == actual.len(),
        "{} of {} rows differ from the {} golden ones:\n{}",
        wrong.len(),
        actual.len(),
        golden.len(),
        wrong.join("\n")
    );
}
