"""End-to-end command-line workflow.

Writes a frame description to disk, then drives the ``quatframes``
entry point in-process: analyze the frame, derive its canonical dual,
run a stability comparison, and reconstruct random vectors through the
frame/dual pair.  Every command prints a small JSON summary and signals
success or failure through its exit code.
"""

import json
import tempfile
from pathlib import Path

from quatframes.cli import main

frame_doc = {
    "kind": "vector_frame",
    "dim": 3,
    "members": [
        {"dim": 3, "data": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
        {"dim": 3, "data": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
        {"dim": 3, "data": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]},
        {"dim": 3, "data": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
    ],
}


def run(workdir: Path) -> None:
    frame_path = workdir / "frame.json"
    frame_path.write_text(json.dumps(frame_doc))

    scaled_doc = dict(frame_doc)
    scaled_doc["members"] = [
        {"dim": 3, "data": [[c * 0.9 for c in row] for row in m["data"]]}
        for m in frame_doc["members"]
    ]
    scaled_path = workdir / "scaled.json"
    scaled_path.write_text(json.dumps(scaled_doc))

    dual_path = workdir / "dual.json"

    steps = [
        ["analyze", str(frame_path)],
        ["dual", str(frame_path), "--out", str(dual_path)],
        ["analyze", str(dual_path)],
        ["reconstruct", str(frame_path), "--random", "25"],
    ]

    for argv in steps:
        print(f"$ quatframes {' '.join(argv)}")
        code = main(argv)
        print(f"(exit {code})\n")

    # stability wants operator frames; encode each vector as its rank-one
    # analysis functional first
    for name, doc in (("opF.json", frame_doc), ("opR.json", scaled_doc)):
        members = []
        for m in doc["members"]:
            row = [[c[0], -c[1], -c[2], -c[3]] for c in m["data"]]
            members.append({"rows": 1, "cols": 3, "data": [row]})
        (workdir / name).write_text(json.dumps(
            {"kind": "operator_frame", "dim": 3, "members": members}))

    argv = ["stability", str(workdir / "opF.json"), str(workdir / "opR.json"),
            "--theorem", "2", "--fit"]
    print(f"$ quatframes {' '.join(argv)}")
    code = main(argv)
    print(f"(exit {code})\n")


with tempfile.TemporaryDirectory(prefix="quatframes-demo-") as tmp:
    run(Path(tmp))
