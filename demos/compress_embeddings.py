"""Compressing embedding tables with the four codec families.

Product quantization (pq) chops each vector into m subvectors and stores one
codebook index per chunk. The rotated variant (opq) learns an orthogonal
rotation first so the chunks share variance more evenly, which is where most
of its accuracy edge comes from. The scalar codec stores 8-bit per dimension,
and the pca codec projects to a narrow basis before the 8-bit step.
"""

import numpy as np

from listalign import codec

rng = np.random.default_rng(3)

# Synthetic table with structure a rotation can exploit: clusters that live
# in subspaces, then a global rotation smearing them across all chunks.
n, d = 4000, 32
pieces = []
for j in range(4):
    centers = rng.normal(size=(16, 8))
    pieces.append(centers[rng.integers(0, 16, size=n)] + 0.05 * rng.normal(size=(n, 8)))
x = np.hstack(pieces) @ np.linalg.qr(rng.normal(size=(d, d)))[0]

print(f"table: {n} vectors, {d} dims, {x.nbytes} bytes as float64")
print()

settings = {
    "pq": codec.CodecSettings("pq", m=4, k=16, iters=20, seed=5),
    "opq": codec.CodecSettings("opq", m=4, k=16, outer_iters=10, kmeans_iters=20, seed=5),
    "scalar": codec.CodecSettings("scalar"),
    "pca": codec.CodecSettings("pca", out_dim=8),
}
trained = {kind: codec.train_codec(s, x) for kind, s in settings.items()}
for kind, c in trained.items():
    block = codec.encode(c, x)
    report = codec.compression_report(x, codec.decode(c, block))
    p50 = report.values[report.levels.index(0.50)]
    print(f"{kind:6s}  {block.bytes_per_vector:3d} bytes/vector"
          f"  p50 err {p50:7.4f}  mean rel err {report.mean_relative_error:.4f}")

# The headline comparison: same budget, same seed, rotation on vs off.
pq, opq = trained["pq"], trained["opq"]
rep_pq = codec.compression_report(x, codec.decode(pq, codec.encode(pq, x)))
rep_opq = codec.compression_report(x, codec.decode(opq, codec.encode(opq, x)))
print()
print("error reduction from the learned rotation, per percentile:")
for level, gain in zip(rep_pq.levels, codec.error_reduction(rep_pq, rep_opq)):
    print(f"  p{int(level * 100):02d}: {gain:5.1f}%")

print()
print("opq objective per outer iteration:", np.round(opq.objective_history, 1))

# Codecs and code tables both round-trip through small binary files.
import tempfile, os

with tempfile.TemporaryDirectory() as tmp:
    cpath = os.path.join(tmp, "table.blc")
    epath = os.path.join(tmp, "codes.emb")
    codec.save_codec(cpath, opq)
    codec.save_embeddings(epath, codec.encode(opq, x).codes)
    again = codec.load_codec(cpath)
    same = np.array_equal(codec.encode(again, x).codes, codec.encode(opq, x).codes)
    print()
    print(f"codec file {os.path.getsize(cpath)} bytes,"
          f" codes file {os.path.getsize(epath)} bytes, round trip exact: {same}")
