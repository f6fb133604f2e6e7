"""End-to-end walkthrough: synthetic data -> split -> train -> evaluate.

Generates a small two-class tone dataset (10 Hz vs 25 Hz in noise), splits it
at the subject level, trains the single-conv-layer model and reports held-out
metrics. Runs in well under a minute on one core.
"""

from eegcnn.data import split_dataset
from eegcnn.metrics import evaluate
from eegcnn.model import ModelConfig, param_count
from eegcnn.synth import synthetic_dataset
from eegcnn.train import TrainConfig, train


def main():
    subjects = synthetic_dataset(
        n_subjects=12, channels=4, fs=100.0, n_epochs=8,
        f0=3.0, f1=25.0, snr_db=10.0, seed=1,
    )
    split = split_dataset(subjects, seed=1)
    print(f"subjects: {len(subjects)}  "
          f"epochs: train={len(split.train)} val={len(split.validation)} "
          f"test={len(split.test)}")

    model_config = ModelConfig(in_channels=4, out_channels=4, kernel=7)
    train_config = TrainConfig(epochs=30, learning_rate=3e-3, seed=0)
    history = train(split, train_config, model_config)
    counts = param_count(history.best_checkpoint)
    print(f"trained {sum(counts.values())} parameters "
          f"(conv {counts['conv']}, fc {counts['fc']}); "
          f"best epoch {history.best_epoch}")

    n = len(history.epochs)
    for i, rec in enumerate(history.epochs[-3:], start=n - 3):
        print(f"  epoch {i:3d}  train_loss {rec['train_loss']:.4f}  "
              f"val_loss {rec['val_loss']:.4f}  val_acc {rec['val_accuracy']:.2f}")

    report = evaluate(history.best_checkpoint, split.test)
    print(f"test accuracy {report.accuracy:.3f}  AUC {report.auc:.3f}  "
          f"F1 {report.f1:.3f}")


if __name__ == "__main__":
    main()
