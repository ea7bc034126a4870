//! Invariant-token extraction: the "longest common substrings" of a set of
//! byte strings (paper §IV-E).
//!
//! A conjunction signature is the set of maximal substrings shared by every
//! member of a cluster. The extraction here is iterative refinement:
//! starting from the shortest member as a single candidate token, each
//! further member's suffix automaton splits every candidate into the
//! maximal pieces that member still contains. Each refinement step is
//! linear in the candidate text plus the member length, so a whole cluster
//! costs O(total bytes) rather than the naive O(n²·len²).

use crate::sam::SuffixAutomaton;

/// Extraction parameters.
#[derive(Debug, Clone, Copy)]
pub struct TokenConfig {
    /// Minimum token length in bytes. Shorter fragments ("a=", "&") carry
    /// no discriminating power and blow up the token set.
    pub min_len: usize,
    /// Hard cap on returned tokens (longest kept). Bounds signature size.
    pub max_tokens: usize,
}

impl Default for TokenConfig {
    fn default() -> Self {
        TokenConfig {
            min_len: 4,
            max_tokens: 16,
        }
    }
}

/// Longest common substring of `a` and `b` (first-found on ties).
///
/// ```
/// assert_eq!(
///     leaksig_textdist::longest_common_substring(b"xbananay", b"qbananaq"),
///     b"banana".to_vec()
/// );
/// ```
pub fn longest_common_substring(a: &[u8], b: &[u8]) -> Vec<u8> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let sam = SuffixAutomaton::new(a);
    let lens = sam.match_lengths(b);
    let (best_end, &best_len) = lens
        .iter()
        .enumerate()
        .max_by_key(|&(i, &l)| (l, std::cmp::Reverse(i)))
        .expect("b nonempty");
    b[best_end + 1 - best_len..=best_end].to_vec()
}

/// The maximal substrings (length ≥ `config.min_len`) present in **every**
/// string of `strings`, longest first (ties broken lexicographically).
///
/// Returns an empty vector when `strings` is empty or nothing long enough
/// is shared. Containment-redundant tokens (a token that is a substring of
/// another returned token) are dropped: in a conjunction they add no
/// constraint.
pub fn common_tokens(strings: &[&[u8]], config: TokenConfig) -> Vec<Vec<u8>> {
    if strings.is_empty() || config.min_len == 0 {
        return Vec::new();
    }
    // Refining against the others shrinks candidates fastest when we start
    // from the shortest member.
    let ref_idx = (0..strings.len())
        .min_by_key(|&i| strings[i].len())
        .expect("nonempty");
    if strings[ref_idx].len() < config.min_len {
        return Vec::new();
    }

    let mut tokens: Vec<Vec<u8>> = vec![strings[ref_idx].to_vec()];
    for (i, s) in strings.iter().enumerate() {
        if i == ref_idx {
            continue;
        }
        let sam = SuffixAutomaton::new(s);
        let mut refined: Vec<Vec<u8>> = Vec::new();
        for t in &tokens {
            refine_token(t, &sam, config.min_len, &mut refined);
        }
        refined.sort();
        refined.dedup();
        tokens = refined;
        if tokens.is_empty() {
            return Vec::new();
        }
    }

    finish(&mut tokens);
    tokens.truncate(config.max_tokens);
    tokens
}

/// The untruncated [`common_tokens`] of a union of two string sets, from
/// the untruncated token sets of each side (`max_tokens` large enough to
/// keep everything).
///
/// Let C(X) be the substrings of length ≥ `min_len` every member of X
/// contains, and M(X) its maximal elements (what [`common_tokens`]
/// returns). C(A∪B) = C(A) ∩ C(B), and every element of C(A) lies in some
/// element of M(A), so M(A∪B) is the maximal set of the maximal common
/// substrings of every pair a ∈ M(A), b ∈ M(B). A dendrogram walk can thus
/// derive each node's tokens from its two children's instead of
/// re-reading every member.
///
/// Both inputs are token sets of non-empty string sets, as these two
/// functions return them: in canonical order (longest first, then
/// lexicographic). So is the output.
///
/// ```
/// use leaksig_textdist::{common_tokens, fold_common_tokens, TokenConfig};
/// let all = TokenConfig { min_len: 4, max_tokens: usize::MAX };
/// let a = common_tokens(&[b"id=1234&x", b"id=1234&y"], all);
/// let b = common_tokens(&[b"zid=1234&"], all);
/// assert_eq!(fold_common_tokens(&a, &b, 4), vec![b"id=1234&".to_vec()]);
/// ```
pub fn fold_common_tokens(a: &[Vec<u8>], b: &[Vec<u8>], min_len: usize) -> Vec<Vec<u8>> {
    if a.is_empty() || b.is_empty() || min_len == 0 {
        return Vec::new();
    }
    if a == b {
        return a.to_vec();
    }
    // One automaton per token of the side with fewer tokens.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let mut tokens: Vec<Vec<u8>> = Vec::new();
    for tb in b {
        let sam = SuffixAutomaton::new(tb);
        for ta in a {
            refine_token(ta, &sam, min_len, &mut tokens);
        }
    }
    tokens.sort();
    tokens.dedup();
    finish(&mut tokens);
    tokens
}

/// Drop contained tokens from a deduplicated set and put it in canonical
/// order: longest first, ties lexicographic.
fn finish(tokens: &mut Vec<Vec<u8>>) {
    drop_contained(tokens);
    tokens.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
}

/// Push the maximal substrings of `t` that occur in `sam` onto `out`.
fn refine_token(t: &[u8], sam: &SuffixAutomaton, min_len: usize, out: &mut Vec<Vec<u8>>) {
    let lens = sam.match_lengths(t);
    // Match intervals ending at j are [j+1-lens[j], j]. Their starts are
    // non-decreasing in j, so interval j is contained in interval j+1 iff
    // the start does not advance; maximal intervals are exactly those whose
    // start strictly precedes the next interval's start.
    for j in 0..lens.len() {
        let l = lens[j];
        if l < min_len {
            continue;
        }
        let start = j + 1 - l;
        if j + 1 < lens.len() {
            let next_start = (j + 2).saturating_sub(lens[j + 1]);
            if next_start <= start {
                continue; // extended by the next position: not maximal
            }
        }
        out.push(t[start..=j].to_vec());
    }
}

/// Remove tokens that are substrings of another token in the set
/// (tokens are never empty: `min_len` is at least 1).
fn drop_contained(tokens: &mut Vec<Vec<u8>>) {
    let snapshot = tokens.clone();
    tokens.retain(|t| {
        !snapshot
            .iter()
            .any(|other| other.len() > t.len() && other.windows(t.len()).any(|w| w == t))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(strings: &[&[u8]], min_len: usize) -> Vec<Vec<u8>> {
        common_tokens(
            strings,
            TokenConfig {
                min_len,
                max_tokens: 64,
            },
        )
    }

    #[test]
    fn lcs_basic() {
        assert_eq!(longest_common_substring(b"abcdef", b"zcdefz"), b"cdef");
        assert_eq!(longest_common_substring(b"abc", b"xyz"), b"");
        assert_eq!(longest_common_substring(b"", b"abc"), b"");
        assert_eq!(longest_common_substring(b"same", b"same"), b"same");
    }

    #[test]
    fn single_string_is_its_own_token() {
        assert_eq!(toks(&[b"androidid="], 4), vec![b"androidid=".to_vec()]);
        assert!(toks(&[b"ab"], 4).is_empty());
    }

    #[test]
    fn shared_template_tokens_survive() {
        let a: &[u8] = b"GET /getad?androidid=f3a9c1d200b14e77&carrier=NTTDOCOMO HTTP/1.1";
        let b: &[u8] = b"GET /getad?androidid=99e8d7c6b5a43210&carrier=KDDI HTTP/1.1";
        let c: &[u8] = b"GET /getad?androidid=0011223344556677&carrier=SOFTBANK HTTP/1.1";
        let tokens = toks(&[a, b, c], 5);
        let flat: Vec<String> = tokens
            .iter()
            .map(|t| String::from_utf8_lossy(t).into_owned())
            .collect();
        assert!(
            flat.iter().any(|t| t.contains("androidid=")),
            "tokens: {flat:?}"
        );
        assert!(
            flat.iter().any(|t| t.contains("&carrier=")),
            "tokens: {flat:?}"
        );
        // Every token must be present in every input.
        for t in &tokens {
            for s in [a, b, c] {
                assert!(
                    s.windows(t.len()).any(|w| w == t),
                    "token {t:?} missing from {s:?}"
                );
            }
        }
    }

    #[test]
    fn disjoint_strings_have_no_tokens() {
        assert!(toks(&[b"aaaaaaa", b"bbbbbbb"], 4).is_empty());
    }

    #[test]
    fn min_len_filters_short_fragments() {
        let tokens = toks(&[b"xx__ab__yy", b"zz__ab__ww"], 7);
        assert!(tokens.is_empty(), "got {tokens:?}");
        let tokens = toks(&[b"xx__ab__yy", b"zz__ab__ww"], 4);
        assert_eq!(tokens, vec![b"__ab__".to_vec()]);
    }

    #[test]
    fn contained_tokens_are_dropped() {
        // "id=12345" appears whole; "2345" alone would be contained.
        let tokens = toks(&[b"Aid=12345B", b"Cid=12345D"], 4);
        assert_eq!(tokens, vec![b"id=12345".to_vec()]);
    }

    #[test]
    fn max_tokens_caps_longest_first() {
        // Construct inputs sharing three separated tokens of different
        // lengths; the cap keeps the longest.
        let a: &[u8] = b"AAAAAAA.x.BBBBB.y.CCCC";
        let b: &[u8] = b"AAAAAAA-u-BBBBB-v-CCCC";
        let got = common_tokens(
            &[a, b],
            TokenConfig {
                min_len: 4,
                max_tokens: 2,
            },
        );
        assert_eq!(got, vec![b"AAAAAAA".to_vec(), b"BBBBB".to_vec()]);
    }

    #[test]
    fn order_of_inputs_does_not_change_token_set() {
        let a: &[u8] = b"GET /v1/ad?imei=355195000000017&net=doc";
        let b: &[u8] = b"GET /v1/ad?imei=868030000000000&net=kdd";
        let c: &[u8] = b"GET /v1/ad?imei=352099000000001&net=sfb";
        let mut t1 = toks(&[a, b, c], 4);
        let mut t2 = toks(&[c, a, b], 4);
        t1.sort();
        t2.sort();
        assert_eq!(t1, t2);
    }

    #[test]
    fn binary_content_is_fine() {
        let a = [0u8, 1, 2, 3, 250, 251, 252, 253, 254, 255, 9, 9];
        let b = [7u8, 7, 250, 251, 252, 253, 254, 255, 8, 8];
        let tokens = toks(&[&a, &b], 4);
        assert_eq!(tokens, vec![vec![250, 251, 252, 253, 254, 255]]);
    }

    #[test]
    fn empty_input_set() {
        assert!(toks(&[], 4).is_empty());
    }

    #[test]
    fn repeated_token_in_one_member() {
        // Token occurs twice in one string, once in the other: still one
        // deduplicated token.
        let tokens = toks(&[b"tokX...tokX", b"__tokX__"], 4);
        assert_eq!(tokens, vec![b"tokX".to_vec()]);
    }
}
