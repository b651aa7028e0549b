"""ARI after every epoch, to choose each workload's epoch count on a plateau.

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/plateau.py \\
        N_SIDE GENES MAX_EPOCHS SEEDS [VARIANTS [TRAIN_SEED]]

For each seed of the synthetic data and each ablation variant (default
``full``), trains with TRAIN_SEED (default: the data seed) for MAX_EPOCHS
epochs and after
every epoch clusters a fresh forward pass as ``stmfg run`` does after its
last epoch. Prints one JSON line per (seed, variant) with the ARI list;
``plateau.jsonl`` holds the lines behind the epoch counts in ``run.py``.
"""

import json
import sys
import time

import numpy as np

from stmfg import autodiff as ad
from stmfg.autodiff import Tensor
from stmfg.clustering import ari, kmeans
from stmfg.data import generate_synthetic, preprocess
from stmfg.graphs import build_graph_pair
from stmfg.model import ModelParams
from stmfg.training import Adam, TrainConfig, _reconstruction_target, run_epoch, trainable_tensors

VARIANTS = {"full": {}, "no_mf": {"disable_fusion": True}, "no_cl": {"disable_cl": True},
            "no_reg": {"disable_reg": True}, "no_zinb": {"disable_zinb": True}}


def main() -> None:
    n_side, genes, emax = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
    seeds = [int(s) for s in sys.argv[4].split(",")]
    variants = sys.argv[5].split(",") if len(sys.argv) > 5 else ["full"]
    train_seed = int(sys.argv[6]) if len(sys.argv) > 6 else None
    for seed in seeds:
        ds = preprocess(generate_synthetic(n_side, 5, genes, seed=seed, dropout=0.3,
                                           dispersion=2.0))
        cfg0 = TrainConfig(epochs=emax, seed=seed if train_seed is None else train_seed)
        g = build_graph_pair(ds.coords, ds.preprocessed, radius=cfg0.radius, k=cfg0.knn_k)
        for v in variants:
            cfg = TrainConfig.from_dict({**cfg0.to_dict(), **VARIANTS[v]})
            target, tic = _reconstruction_target(ds, cfg)
            x = Tensor(ds.preprocessed)
            rng = np.random.default_rng(cfg.seed)
            params = ModelParams.initialize(rng, [x.cols, *cfg.hidden_dims],
                                            recon_width=target.shape[1],
                                            decoder_hidden=cfg.decoder_hidden)
            opt = Adam(trainable_tensors(params, cfg), lr=cfg.lr, weight_decay=cfg.weight_decay)
            aris = []
            t0 = time.perf_counter()
            for _ in range(emax):
                total, _, _ = run_epoch(x, target, tic, g, params, cfg)
                opt.zero_grad()
                ad.backward(total)
                opt.step()
                _, _, tr = run_epoch(x, target, tic, g, params, cfg)
                p = kmeans(tr.embedding, 5, seed=cfg.seed)
                aris.append(round(ari(p.labels, ds.truth_labels), 3))
            print(json.dumps({"n_side": n_side, "genes": genes, "seed": seed,
                              "train_seed": cfg.seed, "variant": v,
                              "s": round(time.perf_counter() - t0, 1), "ari": aris}), flush=True)


if __name__ == "__main__":
    main()
