"""Train the benchmark's detection model fixture once, from a fixed seed.

    python3 perfbench/make_fixture.py

Trains the README-shaped constrained network (ws 32, trunk 6/12/12/12) on
300 generated README scenes and writes perfbench/fixture_model.json.  The
settings differ from the README quickstart in three places: no regularizer
(phi 0), lr 0.05, and object colours kept 35 levels clear of the background
band.  With the README settings the window classifier stays at the class
prior and the model emits no raw detections, which would leave the
detection workloads with nothing to refine.  Scenes are written under
.perfbench_out/fixture in the checkout.
"""

import json
import os
import sys
import time

import bootstrap

FIXTURE_SEED = 20161031
N_TRAIN_SCENES = 300
N_VAL_SCENES = 100


def main():
    bootstrap.cap_blas_threads()
    root = bootstrap.checkout_root()
    bootstrap.import_ghaar(root)
    from ghaar import compressed as cm
    from ghaar import synth as sy
    from ghaar import training as tr
    import fixture
    import scenes

    work = os.path.join(root, ".perfbench_out", "fixture")
    cfg = scenes.readme_train_config(phi=0.0, lr=0.05, epochs=8,
                                     constrain=True, seed=0)
    sets = {}
    for split, n, seed in (("train", N_TRAIN_SCENES, FIXTURE_SEED),
                           ("val", N_VAL_SCENES, FIXTURE_SEED + 1)):
        out = os.path.join(work, split)
        st = scenes.readme_scenes(n, split=split,
                                 color_margin=scenes.FIXTURE_COLOR_MARGIN)
        manifest = sy.synth_generate(st, scenes.README_CAMERA, scenes.RANGES,
                                     out, seed)
        sets[split] = sy.extract_samples(manifest, out, seed=cfg.seed,
                                         **scenes.EXTRACT)
    x, loc, labels = sets["train"]
    print(f"training on {x.shape[0]} windows", flush=True)

    def progress(row):
        print(f"epoch {row['epoch']} phase {row['phase']} "
              f"loss {row['loss']:.4f} val_err {row['val_err_cla']:.3f}",
              flush=True)

    t0 = time.perf_counter()
    params, space, rows = tr.fit(x, loc, labels, cfg, val=sets["val"],
                                 progress=progress)
    settings = {
        "scene_seed": FIXTURE_SEED, "train_scenes": N_TRAIN_SCENES,
        "val_scenes": N_VAL_SCENES,
        "color_margin": scenes.FIXTURE_COLOR_MARGIN,
        "train_windows": int(x.shape[0]), "epochs": cfg.epochs,
        "phase_a_epochs": cfg.phase_a_epochs, "lr": cfg.lr, "phi": cfg.phi,
        "q": cfg.q, "nr": cfg.nr, "batch_size": cfg.batch_size,
        "train_seed": cfg.seed, "constrain": cfg.constrain,
        "window": cfg.window, "trunk_widths": list(cfg.trunk_widths),
        "head_widths": list(cfg.head_widths), "bottleneck": cfg.bottleneck,
        "val_err_cla": rows[-1]["val_err_cla"],
        "fit_seconds": round(time.perf_counter() - t0, 1),
    }
    model = cm.compress(params, space)
    data = fixture.model_to_fixture(model, settings)
    if fixture.fixture_model_bytes(data) != cm.encode_model(model):
        sys.exit("fixture arrays do not rebuild the trained model")
    with open(fixture.FIXTURE_PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {fixture.FIXTURE_PATH}: val_err_cla "
          f"{settings['val_err_cla']:.3f}")


if __name__ == "__main__":
    main()
