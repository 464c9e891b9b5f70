"""Hyperdimensional computing with a behavioral SOT-CAM accelerator model."""

__version__ = "0.1.0"
