"""Lightweight terminal visualization (ViStream stand-in)."""

from repro.viz.ascii_art import render_sgs

__all__ = ["render_sgs"]
