"""The checkpoint encoder that storing each parameter as base64 float64
bytes replaced, frozen as the equivalence reference for the tests.

`save_checkpoint` is `molsets.model.save_checkpoint` as it stood before,
copied verbatim: each parameter is `{"shape": [...], "values": [...]}`,
the decimal text of every float in C order. Reading that document back
with `np.array(values, dtype=np.float64).reshape(shape)` was the old
loader. Not a test module: pytest does not collect it.
"""

import json
import os
from dataclasses import asdict

from molsets.model import FEATURE_SCHEMA_VERSION, ModelParams, named_parameters


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Single JSON document; float arrays round-trip bit-exactly.

    The document is written to `path` + ".tmp" and renamed over `path`,
    so a failed or interrupted save never leaves a partial checkpoint.
    """
    doc = {
        "config": asdict(params.config),
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "params": {
            name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in named_parameters(params)
        },
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
