"""Desk-scale laboratory for affordance- and style-conditioned dexterous
grasping, learned by editing a single demonstration with one-step PPO.

Import what you need from its modules (fungrasp.training,
fungrasp.evaluation, fungrasp.sim, ...); the package itself exports
nothing else."""

__version__ = "0.1.0"
