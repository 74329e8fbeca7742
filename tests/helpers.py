"""Helpers that several test modules share."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

import facepipe


def run_python(code: str, **env: str) -> str:
    """What `python -c code` prints in a new process that imports this facepipe, run with this
    environment and `env` on top."""
    src = str(Path(facepipe.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src, **env},
                         capture_output=True, text=True, check=True, timeout=120)
    return run.stdout.strip()


def rotation_angle_deg(r):
    return np.degrees(np.arccos(np.clip((np.trace(r) - 1) / 2, -1.0, 1.0)))


def euler_angles_zyx(rotation):
    """Reference inverse of rotation_zyx: angles in degrees (theta_x, theta_y, theta_z),
    valid away from the gimbal-lock pitch of +/-90 degrees."""
    r = np.asarray(rotation, dtype=np.float64)
    theta_y = np.arcsin(np.clip(-r[2, 0], -1.0, 1.0))
    theta_x = np.arctan2(r[2, 1], r[2, 2])
    theta_z = np.arctan2(r[1, 0], r[0, 0])
    return np.rad2deg(np.array([theta_x, theta_y, theta_z]))


def write_raw_feature_file(values, path):
    """A feature file's bytes for any values, unchecked: for files the reader rejects."""
    values = np.asarray(values, dtype="<f8").reshape(-1)
    Path(path).write_bytes(b"FVEC1" + struct.pack("<Q", values.size) + values.tobytes())
