//! Property tests for distances and token extraction.

use leaksig_textdist::{
    common_tokens, fold_common_tokens, levenshtein, levenshtein_bounded, longest_common_substring,
    normalized_levenshtein, SuffixAutomaton, TokenConfig,
};
use proptest::prelude::*;

fn hostlike() -> impl Strategy<Value = Vec<u8>> {
    "[a-z0-9.-]{0,40}".prop_map(|s| s.into_bytes())
}

proptest! {
    #[test]
    fn levenshtein_identity(a in hostlike()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
    }

    #[test]
    fn levenshtein_symmetry(a in hostlike(), b in hostlike()) {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn levenshtein_triangle(a in hostlike(), b in hostlike(), c in hostlike()) {
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc, "d(a,c)={} > d(a,b)+d(b,c)={}", ac, ab + bc);
    }

    #[test]
    fn levenshtein_length_bounds(a in hostlike(), b in hostlike()) {
        let d = levenshtein(&a, &b);
        let diff = a.len().abs_diff(b.len());
        prop_assert!(d >= diff);
        prop_assert!(d <= a.len().max(b.len()));
    }

    #[test]
    fn bounded_agrees_with_exact(a in hostlike(), b in hostlike(), bound in 0usize..50) {
        let exact = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, bound) {
            Some(d) => prop_assert_eq!(d, exact),
            None => prop_assert!(exact > bound, "bounded gave None but exact={} <= {}", exact, bound),
        }
    }

    #[test]
    fn normalized_in_unit_interval(a in hostlike(), b in hostlike()) {
        let d = normalized_levenshtein(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// The automaton accepts exactly the substrings.
    #[test]
    fn sam_substring_oracle(s in proptest::collection::vec(any::<u8>(), 0..60),
                            t in proptest::collection::vec(any::<u8>(), 0..12)) {
        let sam = SuffixAutomaton::new(&s);
        let brute = t.is_empty() || s.windows(t.len()).any(|w| w == &t[..]);
        prop_assert_eq!(sam.contains(&t), brute);
    }

    /// The LCS result is a substring of both inputs and no longer common
    /// substring exists (checked against brute force on small inputs).
    #[test]
    fn lcs_is_correct(a in proptest::collection::vec(b'a'..=b'd', 0..24),
                      b in proptest::collection::vec(b'a'..=b'd', 0..24)) {
        let got = longest_common_substring(&a, &b);
        let is_sub = |h: &[u8], n: &[u8]| n.is_empty() || h.windows(n.len()).any(|w| w == n);
        prop_assert!(is_sub(&a, &got));
        prop_assert!(is_sub(&b, &got));
        let mut best = 0usize;
        for i in 0..a.len() {
            for j in i..=a.len() {
                if is_sub(&b, &a[i..j]) {
                    best = best.max(j - i);
                }
            }
        }
        prop_assert_eq!(got.len(), best);
    }

    /// Every extracted token occurs in every input string, and tokens are
    /// pairwise non-contained.
    #[test]
    fn tokens_sound(strings in proptest::collection::vec("[a-z=&/?]{0,30}", 1..5),
                    min_len in 1usize..6) {
        let bytes: Vec<&[u8]> = strings.iter().map(|s| s.as_bytes()).collect();
        let tokens = common_tokens(&bytes, TokenConfig { min_len, max_tokens: 64 });
        let is_sub = |h: &[u8], n: &[u8]| h.windows(n.len()).any(|w| w == n);
        for t in &tokens {
            prop_assert!(t.len() >= min_len);
            for s in &bytes {
                prop_assert!(is_sub(s, t), "token {:?} not in {:?}", t, s);
            }
            for u in &tokens {
                if t != u {
                    prop_assert!(!(u.len() > t.len() && is_sub(u, t)),
                        "token {:?} contained in {:?}", t, u);
                }
            }
        }
    }

    /// The longest common substring of a pair is always recovered as (part
    /// of) a token when it meets the length bar.
    #[test]
    fn tokens_complete_for_pairs(core in "[a-z]{4,10}",
                                 pre_a in "[0-9]{0,6}", post_a in "[0-9]{0,6}",
                                 pre_b in "[0-9]{0,6}", post_b in "[0-9]{0,6}") {
        // Plant a shared core so the pair always has an LCS >= 4 bytes.
        let a = format!("{pre_a}{core}{post_a}");
        let b = format!("{pre_b}{core}{post_b}");
        let lcs = longest_common_substring(a.as_bytes(), b.as_bytes());
        prop_assume!(lcs.len() >= 4);
        let tokens = common_tokens(
            &[a.as_bytes(), b.as_bytes()],
            TokenConfig { min_len: 4, max_tokens: 64 },
        );
        let is_sub = |h: &[u8], n: &[u8]| h.windows(n.len()).any(|w| w == n);
        prop_assert!(
            tokens.iter().any(|t| is_sub(t, &lcs) || is_sub(&lcs, t)),
            "lcs {:?} unrepresented in {:?}", lcs, tokens
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Folding two sides' untruncated token sets gives exactly the
    /// untruncated tokens of their union, also when a folded result is
    /// folded again (a dendrogram grandparent). Small alphabets make
    /// shared, nested and overlapping substrings common; members shorter
    /// than `min_len`, empty members and duplicates all occur.
    #[test]
    fn fold_equals_union_extraction(
        a in proptest::collection::vec("[ab]{0,14}", 1..4),
        b in proptest::collection::vec("[abc]{0,14}", 1..4),
        c in proptest::collection::vec("[ab]{0,10}", 1..3),
        copies in proptest::collection::vec(0usize..16, 0..3),
        min_len in 1usize..5,
    ) {
        let mut b = b;
        let pool: Vec<String> = a.iter().chain(&b).cloned().collect();
        for k in copies {
            b.push(pool[k % pool.len()].clone());
        }
        let all = TokenConfig { min_len, max_tokens: usize::MAX };
        let tokens = |sides: &[&Vec<String>]| {
            let members: Vec<&[u8]> = sides.iter().flat_map(|s| s.iter().map(|m| m.as_bytes())).collect();
            common_tokens(&members, all)
        };
        let ab = fold_common_tokens(&tokens(&[&a]), &tokens(&[&b]), min_len);
        prop_assert_eq!(&ab, &tokens(&[&a, &b]));
        let abc = fold_common_tokens(&ab, &tokens(&[&c]), min_len);
        prop_assert_eq!(abc, tokens(&[&a, &b, &c]));
    }
}
