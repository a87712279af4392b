"""Desk-scale lab for in-context policy optimization.

A regularized bandit expert generates rollouts; a one-layer linear
self-attention student is trained to match its logits under a Fisher-weighted
loss; closed-loop matching and reward-shock experiments validate the theory;
and a minimum-entropy refinement loop applies the same idea to text
generation at inference time.  Names are imported from their modules; the
package itself re-exports none.
"""

__version__ = "0.1.0"
