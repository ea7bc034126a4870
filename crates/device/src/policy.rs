//! Per-app transmission policy and the user-decision cache.
//!
//! The paper's goal is that the user "manage suspicious applications'
//! network behavior in a fine grained manner": benign traffic flows
//! uninterrupted, while a signature hit triggers a prompt whose answer can
//! be remembered per `(app, signature)`.

use std::collections::HashMap;
use std::sync::Arc;

/// What the gate should do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No signature matched, or the user previously allowed this flow.
    Forward,
    /// The user previously blocked this flow.
    Block,
    /// A signature matched and no remembered decision exists.
    Prompt,
}

/// The user's answer to a prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserChoice {
    /// Let this packet through; ask again next time.
    AllowOnce,
    /// Let this and all future `(app, signature)` hits through.
    AllowAlways,
    /// Drop this packet; ask again next time.
    BlockOnce,
    /// Drop this and all future `(app, signature)` hits.
    BlockAlways,
}

/// A remembered decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Remembered {
    Allow,
    Block,
}

/// An app id interned by [`PolicyEngine::intern`]: an index into the
/// engine's app table, valid for that engine only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AppId(u32);

/// One interned app and its remembered decisions.
#[derive(Debug)]
struct App {
    name: Arc<str>,
    /// `(signature, decision)`, sorted by signature.
    decisions: Vec<(u32, Remembered)>,
}

/// The policy engine: decision cache plus defaults.
///
/// App ids are interned: each distinct app is stored once, as an
/// `Arc<str>` the gate's audit log shares, so a lookup hashes the app id
/// once and allocates nothing.
#[derive(Debug, Default)]
pub struct PolicyEngine {
    ids: HashMap<Arc<str>, AppId>,
    apps: Vec<App>,
}

impl PolicyEngine {
    /// Empty policy: everything unmatched forwards, every match prompts.
    pub fn new() -> Self {
        PolicyEngine::default()
    }

    /// The id of `app`, interning it on first sight (the only allocation
    /// the policy makes per app).
    pub(crate) fn intern(&mut self, app: &str) -> AppId {
        if let Some(&id) = self.ids.get(app) {
            return id;
        }
        let id = AppId(self.apps.len() as u32);
        let name: Arc<str> = app.into();
        self.ids.insert(name.clone(), id);
        self.apps.push(App {
            name,
            decisions: Vec::new(),
        });
        id
    }

    /// The interned name of `app`.
    pub(crate) fn name(&self, app: AppId) -> &Arc<str> {
        &self.apps[app.0 as usize].name
    }

    /// Decide for a packet from `app` that matched `signature_id`
    /// (`None` = no match). Allocation-free.
    pub fn decide(&self, app: &str, signature_id: Option<u32>) -> Verdict {
        match self.ids.get(app) {
            Some(&id) => self.decide_for(id, signature_id),
            None if signature_id.is_some() => Verdict::Prompt,
            None => Verdict::Forward,
        }
    }

    /// [`PolicyEngine::decide`] for an interned app.
    pub(crate) fn decide_for(&self, app: AppId, signature_id: Option<u32>) -> Verdict {
        let Some(sig) = signature_id else {
            return Verdict::Forward;
        };
        let decisions = &self.apps[app.0 as usize].decisions;
        match decisions.binary_search_by_key(&sig, |d| d.0) {
            Ok(i) if decisions[i].1 == Remembered::Allow => Verdict::Forward,
            Ok(_) => Verdict::Block,
            Err(_) => Verdict::Prompt,
        }
    }

    /// Record the user's answer to a prompt for `(app, signature_id)`.
    /// Returns whether the pending packet should be forwarded.
    pub fn resolve(&mut self, app: &str, signature_id: u32, choice: UserChoice) -> bool {
        let (remembered, forward) = match choice {
            UserChoice::AllowOnce => return true,
            UserChoice::BlockOnce => return false,
            UserChoice::AllowAlways => (Remembered::Allow, true),
            UserChoice::BlockAlways => (Remembered::Block, false),
        };
        let id = self.intern(app);
        let decisions = &mut self.apps[id.0 as usize].decisions;
        match decisions.binary_search_by_key(&signature_id, |d| d.0) {
            Ok(i) => decisions[i].1 = remembered,
            Err(i) => decisions.insert(i, (signature_id, remembered)),
        }
        forward
    }

    /// Forget one remembered decision (the user changed their mind).
    pub fn forget(&mut self, app: &str, signature_id: u32) -> bool {
        let Some(&id) = self.ids.get(app) else {
            return false;
        };
        let decisions = &mut self.apps[id.0 as usize].decisions;
        match decisions.binary_search_by_key(&signature_id, |d| d.0) {
            Ok(i) => {
                decisions.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Number of remembered decisions.
    pub fn remembered_count(&self) -> usize {
        self.apps.iter().map(|a| a.decisions.len()).sum()
    }

    /// Snapshot of remembered decisions as `(app, signature, allow)` rows
    /// (persistence support).
    pub fn remembered_rows(&self) -> Vec<(String, u32, bool)> {
        self.apps
            .iter()
            .flat_map(|a| {
                a.decisions
                    .iter()
                    .map(|&(sig, r)| (a.name.to_string(), sig, r == Remembered::Allow))
            })
            .collect()
    }

    /// Cross-check every remembered decision against `set`: rules that
    /// reference a signature id the set does not contain are stale (the
    /// user's choice silently stops applying after a set update) and are
    /// reported as L010 diagnostics.
    pub fn validate_against(
        &self,
        set: &leaksig_core::signature::SignatureSet,
    ) -> Vec<leaksig_core::audit::Diagnostic> {
        leaksig_core::audit::policy_references(set, &self.remembered_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmatched_traffic_forwards() {
        let p = PolicyEngine::new();
        assert_eq!(p.decide("jp.co.x.game", None), Verdict::Forward);
    }

    #[test]
    fn first_match_prompts() {
        let p = PolicyEngine::new();
        assert_eq!(p.decide("jp.co.x.game", Some(3)), Verdict::Prompt);
    }

    #[test]
    fn always_choices_are_remembered() {
        let mut p = PolicyEngine::new();
        assert!(p.resolve("app.a", 1, UserChoice::AllowAlways));
        assert!(!p.resolve("app.a", 2, UserChoice::BlockAlways));
        assert_eq!(p.decide("app.a", Some(1)), Verdict::Forward);
        assert_eq!(p.decide("app.a", Some(2)), Verdict::Block);
        // Scoped per app: another app still prompts.
        assert_eq!(p.decide("app.b", Some(1)), Verdict::Prompt);
        assert_eq!(p.remembered_count(), 2);
    }

    #[test]
    fn once_choices_are_not_remembered() {
        let mut p = PolicyEngine::new();
        assert!(p.resolve("app.a", 1, UserChoice::AllowOnce));
        assert!(!p.resolve("app.a", 1, UserChoice::BlockOnce));
        assert_eq!(p.decide("app.a", Some(1)), Verdict::Prompt);
        assert_eq!(p.remembered_count(), 0);
    }

    #[test]
    fn stale_rules_are_flagged_against_the_installed_set() {
        use leaksig_core::audit::Code;
        use leaksig_core::signature::{ConjunctionSignature, Field, FieldToken, SignatureSet};

        let set = SignatureSet {
            signatures: vec![ConjunctionSignature {
                id: 3,
                tokens: vec![FieldToken::new(
                    Field::RequestLine,
                    &b"GET /getad?imei=355195"[..],
                )],
                cluster_size: 2,
                hosts: vec![],
            }],
        };
        let mut p = PolicyEngine::new();
        p.resolve("app.a", 3, UserChoice::BlockAlways); // still valid
        p.resolve("app.a", 9, UserChoice::AllowAlways); // stale after update
        let diags = p.validate_against(&set);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::UnknownPolicySignature);
        assert_eq!(diags[0].signature_id, Some(9));
        assert!(diags[0].message.contains("app.a"));
    }

    #[test]
    fn forget_reverts_to_prompt() {
        let mut p = PolicyEngine::new();
        p.resolve("app.a", 1, UserChoice::BlockAlways);
        assert_eq!(p.decide("app.a", Some(1)), Verdict::Block);
        assert!(p.forget("app.a", 1));
        assert!(!p.forget("app.a", 1), "double forget");
        assert_eq!(p.decide("app.a", Some(1)), Verdict::Prompt);
    }
}
