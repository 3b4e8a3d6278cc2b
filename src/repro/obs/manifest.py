"""Run manifests: who/what/when of a simulation run.

Every traced run writes a manifest — seed, command line, a config
snapshot, tool versions, and a git-describe-style identifier — so a
trace file found on disk six months later is still attributable to an
exact code state and invocation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "EMITTER_SCHEME",
    "FADING_SCHEME",
    "RETRY_SCHEME",
    "RunManifest",
    "SEEDING_SCHEME",
    "build_manifest",
    "source_revision",
]

#: Identifier of the seed-derivation scheme in effect (see
#: :mod:`repro.perf.seeding`).  Recorded in every manifest so a stored
#: run documents which derivation produced its random streams; bump it
#: whenever the derivation changes in a result-affecting way.
SEEDING_SCHEME = "seedseq-spawn-v2"

#: Identifier of the retry-attempt seed derivation (see
#: :func:`repro.perf.seeding.attempt_seed`).  Separate from
#: :data:`SEEDING_SCHEME` because attempt streams only exist on retried
#: tasks and must not perturb the base derivation (or the memoization
#: keys hashed from it).
RETRY_SCHEME = "retry-spawn-v1"

#: Identifier of the interference-emitter stream derivation (see
#: :func:`repro.channel.streams.fork_stream`).  Each scenario emitter
#: draws from its own child stream forked off a *snapshot* of the wanted
#: path's generator state, so enabling an emitter never advances — and
#: therefore never perturbs — the wanted path's noise/payload draws.
EMITTER_SCHEME = "emitter-fork-v1"

#: Identifier of the time-varying fading synthesis (see
#: :meth:`repro.channel.fading.FadingChannel.realize_time_varying`).
#: The Jakes sum-of-sinusoids taps are evaluated by an exact block
#: factorization; it draws the same random numbers as the direct sum
#: and differs from it only by rounding, but raw samples are not
#: bit-identical to runs made before it, so stored runs record it.
FADING_SCHEME = "jakes-sos-blockfactor-v1"


def source_revision() -> Optional[str]:
    """``git describe --always --dirty`` of the source tree, or None.

    Best-effort: returns None when the package is not running from a git
    checkout (installed wheel, stripped CI checkout, no git binary).
    """
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    rev = out.stdout.strip()
    return rev or None


def _package_versions() -> Dict[str, str]:
    versions = {"python": platform.python_version()}
    for module_name in ("numpy", "scipy"):
        module = sys.modules.get(module_name)
        if module is None:
            try:
                module = __import__(module_name)
            except ImportError:
                continue
        versions[module_name] = getattr(module, "__version__", "unknown")
    return versions


def _config_snapshot(config: Any) -> Any:
    """Best-effort JSON-friendly rendering of a configuration object."""
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = dataclasses.asdict(config)
    if isinstance(config, dict):
        return {str(k): _config_snapshot(v) for k, v in config.items()}
    if isinstance(config, (list, tuple)):
        return [_config_snapshot(v) for v in config]
    if isinstance(config, (str, int, float, bool)):
        return config
    return repr(config)


@dataclass
class RunManifest:
    """Provenance record written alongside a trace.

    Attributes:
        run_id: git-describe-style identifier of this run.
        created_unix_s / created_iso: run start timestamp.
        seed: the run's base random seed (None if not applicable).
        command: the invoking command line.
        config: JSON-friendly snapshot of the run configuration.
        versions: python/numpy/scipy versions.
        platform: interpreter platform string.
        seeding: seed-derivation scheme in effect (see
            :mod:`repro.perf.seeding`).
        retry_seeding: retry-attempt seed derivation in effect (see
            :func:`repro.perf.seeding.attempt_seed`).
        emitter_seeding: interference-emitter stream derivation in
            effect (see :func:`repro.channel.streams.fork_stream`).
        fading_synthesis: time-varying fading synthesis in effect (see
            :data:`FADING_SCHEME`).
    """

    run_id: str
    created_unix_s: float
    created_iso: str
    seed: Optional[int] = None
    command: Optional[str] = None
    config: Any = None
    versions: Dict[str, str] = field(default_factory=dict)
    platform: str = ""
    seeding: str = SEEDING_SCHEME
    retry_seeding: str = RETRY_SCHEME
    emitter_seeding: str = EMITTER_SCHEME
    fading_synthesis: str = FADING_SCHEME

    def as_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["type"] = "manifest"
        return d

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


def build_manifest(
    seed: Optional[int] = None,
    command: Optional[str] = None,
    config: Any = None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` for the current process.

    The run id composes the package version, the source revision when
    available, and a timestamp fragment for uniqueness:
    ``repro-1.0.0-g3f2a1c9-8a4f2b`` style.
    """
    try:
        from repro import __version__ as version
    except ImportError:
        version = "unknown"
    now = time.time()
    rev = source_revision()
    parts = [f"repro-{version}"]
    if rev:
        parts.append(rev if rev.startswith("g") else f"g{rev}")
    parts.append(f"{int(now * 1e6) & 0xFFFFFF:06x}")
    return RunManifest(
        run_id="-".join(parts),
        created_unix_s=now,
        created_iso=time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
        seed=seed,
        command=command,
        config=_config_snapshot(config),
        versions=_package_versions(),
        platform=platform.platform(),
        seeding=SEEDING_SCHEME,
        retry_seeding=RETRY_SCHEME,
        emitter_seeding=EMITTER_SCHEME,
        fading_synthesis=FADING_SCHEME,
    )
