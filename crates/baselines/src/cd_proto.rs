//! Collision-detection-aware baselines.
//!
//! Under the paper's no-collision-detection model, failure feedback is a
//! single bit and carries no information, so every baseline in this crate
//! is driven by a fixed program (plus, at most, heard successes). Under a
//! ternary collision-detection channel
//! ([`ChannelModel::CollisionDetection`]) the feedback distinguishes
//! [`Feedback::Silence`] (idle channel) from [`Feedback::Noise`]
//! (contention), and the classical reaction is MIMD: back off
//! multiplicatively on noise, speed up on silence. These protocols wrap
//! the [`contention_backoff::mimd`] drivers.
//!
//! Both degrade gracefully on poorer channels. Ambiguous failure feedback
//! ([`Feedback::NoSuccess`]) after one's *own* transmission is treated as
//! noise — the node knows its send failed because it is still in the
//! system. Under no-CD the only remaining signals are that own-failure
//! inference and *heard successes* (which are public in the paper's
//! model, and count as a clear signal), so the protocols degrade to a
//! success-reactive multiplicative backoff: silence is never reported
//! and the idle-channel speed-up never fires. Under ack-only feedback
//! ([`Feedback::Nothing`]) even heard successes vanish and only the
//! own-send inference remains.
//!
//! [`ChannelModel::CollisionDetection`]: contention_sim::ChannelModel
//! [`Feedback::Silence`]: contention_sim::Feedback
//! [`Feedback::Noise`]: contention_sim::Feedback
//! [`Feedback::NoSuccess`]: contention_sim::Feedback
//! [`Feedback::Nothing`]: contention_sim::Feedback

use contention_backoff::{CollisionWindow, MimdProbability};
use contention_sim::{Action, Feedback, Protocol};
use rand::rngs::SmallRng;

/// Did this slot's feedback report a *failure the node can learn from*?
///
/// `sent` is whether the node itself transmitted in the slot. Returns the
/// MIMD signal: `Some(true)` = treat as noise, `Some(false)` = treat as
/// clear/idle, `None` = no signal.
fn mimd_signal(sent: bool, feedback: Feedback) -> Option<bool> {
    match feedback {
        // Verifiable contention: always a noise signal.
        Feedback::Noise => Some(true),
        // Verifiably idle channel: speed up (only ever heard while
        // listening — a slot in which this node sent cannot be silent).
        Feedback::Silence => Some(false),
        // A heard success means the channel cleared for someone: treat as
        // a (mild) clear signal, like silence.
        Feedback::Success(_) => Some(false),
        // Ambiguous failure (no-CD) or no feedback at all (ack-only): the
        // node still knows its *own* send failed, because a successful
        // sender would have departed.
        Feedback::NoSuccess | Feedback::Nothing => sent.then_some(true),
    }
}

/// Collision-triggered windowed backoff (`cd-beb`): an Ethernet-style
/// MIMD contention window. Doubles on noise (including own failed sends),
/// halves on silence or heard success.
#[derive(Debug, Clone, Default)]
pub struct CdBackoffProtocol {
    window: CollisionWindow,
    sent_last: bool,
}

impl CdBackoffProtocol {
    /// A fresh instance (window 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current contention window (for tests and inspection).
    pub fn window(&self) -> u64 {
        self.window.window()
    }
}

impl Protocol for CdBackoffProtocol {
    fn name(&self) -> &'static str {
        "cd-beb"
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(self.clone()))
    }

    fn act(&mut self, _local_slot: u64, rng: &mut SmallRng) -> Action {
        self.sent_last = self.window.next(rng);
        if self.sent_last {
            Action::Broadcast
        } else {
            Action::Listen
        }
    }

    fn observe(&mut self, _local_slot: u64, feedback: Feedback) {
        match mimd_signal(self.sent_last, feedback) {
            Some(true) => self.window.on_noise(),
            Some(false) => self.window.on_clear(),
            None => {}
        }
    }
}

/// Collision-aware slotted ALOHA (`cd-aloha`): a MIMD transmission
/// probability. Halves on noise (including own failed sends), doubles on
/// silence or heard success.
#[derive(Debug, Clone)]
pub struct CdAlohaProtocol {
    prob: MimdProbability,
    sent_last: bool,
}

impl CdAlohaProtocol {
    /// Floor for the MIMD probability: low enough to survive very large
    /// populations, high enough to recover quickly once silence is heard.
    const MIN_P: f64 = 1.0 / 65_536.0;

    /// A fresh instance starting at transmission probability `p0`.
    pub fn new(p0: f64) -> Self {
        CdAlohaProtocol {
            prob: MimdProbability::new(p0, Self::MIN_P, 1.0),
            sent_last: false,
        }
    }

    /// Current transmission probability.
    pub fn prob(&self) -> f64 {
        self.prob.prob()
    }
}

impl Protocol for CdAlohaProtocol {
    fn name(&self) -> &'static str {
        "cd-aloha"
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(self.clone()))
    }

    fn act(&mut self, _local_slot: u64, rng: &mut SmallRng) -> Action {
        self.sent_last = self.prob.decide(rng);
        if self.sent_last {
            Action::Broadcast
        } else {
            Action::Listen
        }
    }

    fn observe(&mut self, _local_slot: u64, feedback: Feedback) {
        match mimd_signal(self.sent_last, feedback) {
            Some(true) => self.prob.on_noise(),
            Some(false) => self.prob.on_clear(),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_sim::NodeId;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn cd_beb_doubles_on_noise_and_halves_on_silence() {
        let mut p = CdBackoffProtocol::new();
        let mut r = rng(1);
        assert_eq!(p.act(0, &mut r), Action::Broadcast, "window 1 sends");
        p.observe(0, Feedback::Noise);
        assert_eq!(p.window(), 2);
        p.observe(1, Feedback::Noise);
        assert_eq!(p.window(), 4);
        p.observe(2, Feedback::Silence);
        assert_eq!(p.window(), 2);
        p.observe(3, Feedback::Success(NodeId::new(7)));
        assert_eq!(p.window(), 1);
    }

    #[test]
    fn own_failed_send_is_noise_even_without_cd() {
        for ambiguous in [Feedback::NoSuccess, Feedback::Nothing] {
            let mut p = CdBackoffProtocol::new();
            let mut r = rng(2);
            assert_eq!(p.act(0, &mut r), Action::Broadcast);
            p.observe(0, ambiguous);
            assert_eq!(p.window(), 2, "own failure under {ambiguous} doubles");
        }
    }

    #[test]
    fn listening_no_success_carries_no_signal() {
        let mut p = CdBackoffProtocol::new();
        p.observe(0, Feedback::Noise); // get off window 1 first
        p.observe(1, Feedback::Noise);
        let w = p.window();
        // While listening, ambiguous failures must not move the window —
        // under no-CD they are uninformative.
        let mut r = rng(3);
        loop {
            if p.act(0, &mut r) == Action::Listen {
                break;
            }
            p.observe(0, Feedback::Noise);
        }
        let w = p.window().max(w);
        p.observe(1, Feedback::NoSuccess);
        p.observe(2, Feedback::Nothing);
        assert_eq!(p.window(), w);
    }

    #[test]
    fn cd_aloha_probability_tracks_signals() {
        let mut p = CdAlohaProtocol::new(0.5);
        p.observe(0, Feedback::Noise);
        assert_eq!(p.prob(), 0.25);
        p.observe(1, Feedback::Silence);
        assert_eq!(p.prob(), 0.5);
        p.observe(2, Feedback::Silence);
        assert_eq!(p.prob(), 1.0);
        assert_eq!(p.name(), "cd-aloha");
    }

    #[test]
    fn protocols_observe_failures() {
        // Both must receive non-success feedback from the engine: the
        // whole point is reacting to Silence/Noise.
        assert!(CdBackoffProtocol::new().observes_failures());
        assert!(CdAlohaProtocol::new(0.5).observes_failures());
    }
}
