"""Workload applications driven through the public launch API."""

from repro.apps.base import jitter_factor
from repro.apps.miniqmc import MiniQmcConfig, miniqmc_app
from repro.apps.pic import PicConfig, pic_app
from repro.apps.stencil import (
    StencilConfig,
    cart_coords,
    cart_dims,
    cart_rank,
    stencil_app,
)
from repro.apps.synthetic import crash_app, deadlock_app, oom_app

__all__ = [
    "jitter_factor",
    "MiniQmcConfig",
    "miniqmc_app",
    "PicConfig",
    "pic_app",
    "StencilConfig",
    "stencil_app",
    "cart_dims",
    "cart_coords",
    "cart_rank",
    "deadlock_app",
    "oom_app",
    "crash_app",
]
