"""End-to-end CLI flows."""

import struct

import numpy as np
import pytest

from helpers import BAD_COUNTERS, MALFORMED_STATE, one_entry_afdk
from peerkd import data
from peerkd.blocks import eval_mode
from peerkd.checkpoint import load_entries, save_entries
from peerkd.cli import build_parser, main
from peerkd.tensor import Tensor, no_grad
from peerkd.trainer import restore_run


@pytest.fixture()
def run_dir(tmp_path):
    out = tmp_path / "run"
    code = main([
        "train", "--method", "afd", "--archs", "tiny-a,tiny-a",
        "--num-classes", "3", "--epochs", "1", "--batch-size", "16",
        "--per-class-train", "8", "--per-class-test", "4",
        "--image-size", "16", "--seed", "0", "--out-dir", str(out),
    ])
    assert code == 0
    return out


def test_train_writes_metrics_and_checkpoint(run_dir, capsys):
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "checkpoint_final.afdk").exists()
    header = (run_dir / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,net_id,split,loss_ce,loss_kl,loss_g,loss_d,top1,ens_top1,lr_logit,lr_adv"


def _common_flags(run_dir):
    return ["--method", "afd", "--archs", "tiny-a,tiny-a", "--num-classes", "3",
            "--batch-size", "16", "--per-class-train", "8", "--per-class-test", "4",
            "--image-size", "16", "--seed", "0",
            "--checkpoint", str(run_dir / "checkpoint_final.afdk")]


def test_eval_prints_accuracies(run_dir, capsys):
    assert main(["eval"] + _common_flags(run_dir)) == 0
    out = capsys.readouterr().out
    assert "net0 top1" in out and "net1 top1" in out and "ensemble top1" in out


def test_analyze_prints_csv_row(run_dir, capsys):
    assert main(["analyze"] + _common_flags(run_dir)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "method,pair,l1,l2,cosine,n"
    fields = lines[1].split(",")
    assert fields[0] == "afd" and fields[1] == "0-1"
    l1, l2, cos = map(float, fields[2:5])
    assert l1 >= 0 and l2 >= 0 and -1 <= cos <= 1
    assert int(fields[5]) == 12  # 3 classes x 4 per class

def test_eval_refuses_checkpoint_with_fewer_nets(run_dir, capsys):
    code = main(["eval"] + _common_flags(run_dir) + ["--archs", "tiny-a", "--k", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "net2/" in err and "Traceback" not in err


def test_eval_refuses_checkpoint_of_another_method(run_dir, capsys):
    code = main(["eval"] + _common_flags(run_dir) + ["--method", "vanilla"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "disc0/" in err and "Traceback" not in err


def _assert_refused(run_dir, tmp_path, capsys, command, entries, message):
    """Save ``entries`` as a checkpoint, then ``eval`` it, or ``train
    --resume`` from it into a new directory and into the run's own. Each
    must exit 2 with ``message`` and leave every file as it was."""
    bad = tmp_path / "bad.afdk"
    save_entries(bad, entries)
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    flags = _common_flags(run_dir)[:-2]
    if command == "train":
        runs = [flags + ["--epochs", "2", "--resume", str(bad), "--out-dir", str(out)]
                for out in (tmp_path / "resumed", run_dir)]
    else:
        runs = [flags + ["--checkpoint", str(bad)]]
    for argv in runs:
        code = main([command] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(message) and "Traceback" not in err
    assert not (tmp_path / "resumed").exists()
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("name,shape", MALFORMED_STATE)
def test_malformed_state_entry_is_refused(run_dir, tmp_path, capsys, command, name, shape):
    entries = load_entries(run_dir / "checkpoint_final.afdk")
    entries[name] = np.zeros(shape, dtype=np.float32)
    _assert_refused(run_dir, tmp_path, capsys, command, entries,
                    f"error: checkpoint entry {name} has shape")


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("name,value", BAD_COUNTERS)
def test_bad_counter_is_refused(run_dir, tmp_path, capsys, command, name, value):
    entries = load_entries(run_dir / "checkpoint_final.afdk")
    entries[name] = np.full_like(entries[name], value)
    _assert_refused(run_dir, tmp_path, capsys, command, entries,
                    f"error: checkpoint entry {name} holds")


def test_gradcam_writes_pgm(run_dir, tmp_path, capsys):
    out_file = tmp_path / "cam.pgm"
    assert main(["gradcam"] + _common_flags(run_dir)
                + ["--index", "1", "--net", "0", "--out", str(out_file)]) == 0
    assert out_file.read_bytes().startswith(b"P5\n")


@pytest.mark.parametrize("flag,value", [("--index", "12"), ("--index", "-1"),
                                        ("--net", "2"), ("--net", "-1")])
def test_gradcam_refuses_out_of_range_selection(run_dir, tmp_path, capsys, flag, value):
    out_file = tmp_path / "cam.pgm"
    code = main(["gradcam"] + _common_flags(run_dir) + [flag, value, "--out", str(out_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {flag} {value} out of range") and "Traceback" not in err
    assert not out_file.exists()


def test_synth_data_round_trips(tmp_path, capsys):
    img = tmp_path / "train.images.idx"
    lbl = tmp_path / "train.labels.idx"
    assert main(["synth-data", "--num-classes", "4", "--per-class", "5",
                 "--image-size", "12", "--noise-std", "0.2", "--seed", "3",
                 "--images", str(img), "--labels", str(lbl)]) == 0
    ds = data.load_idx(img, lbl)
    assert ds.n == 20
    assert ds.images.shape == (20, 1, 12, 12)
    assert sorted(np.unique(ds.labels)) == [0, 1, 2, 3]


def test_synth_data_defaults_are_the_run_config_defaults():
    args = build_parser().parse_args(["synth-data", "--images", "i", "--labels", "l"])
    cfg = data.RunConfig()
    assert ((args.num_classes, args.per_class, args.image_size, args.noise_std, args.seed)
            == (cfg.num_classes, cfg.per_class_train, cfg.image_size, cfg.noise_std,
                cfg.data_seed))


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "method = vanilla\n"
        "archs = tiny-a\n"
        "num_classes = 3\n"
        "epochs = 2   # overridden below\n"
        "batch_size = 16\n"
        "per_class_train = 8\n"
        "per_class_test = 4\n"
        "image_size = 16\n"
        f"out_dir = {tmp_path / 'cfg_run'}\n"
    )
    assert main(["train", "--config", str(cfg), "--epochs", "0"]) == 0
    lines = (tmp_path / "cfg_run" / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the epoch-0 eval row


def test_idx_training_path(tmp_path):
    img = tmp_path / "d.images.idx"
    lbl = tmp_path / "d.labels.idx"
    assert main(["synth-data", "--num-classes", "3", "--per-class", "8",
                 "--image-size", "16", "--seed", "1",
                 "--images", str(img), "--labels", str(lbl)]) == 0
    assert main(["train", "--method", "vanilla", "--archs", "tiny-a",
                 "--num-classes", "3", "--epochs", "1", "--batch-size", "8",
                 "--data-source", "idx",
                 "--train-images", str(img), "--train-labels", str(lbl),
                 "--test-images", str(img), "--test-labels", str(lbl),
                 "--out-dir", str(tmp_path / "idx_run")]) == 0


def test_error_exit_code(tmp_path, capsys):
    code = main(["train", "--method", "bogus", "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("archs", ["conv:8:3:1-pool:0", "conv:0:3:1"])
def test_train_refuses_non_positive_block_sizes(tmp_path, capsys, archs):
    code = main(["train", "--method", "vanilla", "--archs", archs, "--num-classes", "3",
                 "--epochs", "1", "--per-class-train", "4", "--per-class-test", "2",
                 "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and archs.split("-")[-1] in err and "Traceback" not in err


def _tiny_train(tmp_path):
    return ["train", "--method", "vanilla", "--archs", "tiny-a", "--num-classes", "3",
            "--epochs", "1", "--per-class-train", "4", "--per-class-test", "2",
            "--out-dir", str(tmp_path / "run")]


@pytest.mark.parametrize("flag,value,key", [("--epochs", "abc", "epochs"),
                                            ("--temperature", "hot", "temperature"),
                                            ("--milestones-logit", "1,x", "milestones_logit")])
def test_train_refuses_malformed_values(tmp_path, capsys, flag, value, key):
    code = main(_tiny_train(tmp_path) + [flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value,key", [("--temperature", "nan", "temperature"),
                                            ("--lr-logit", "nan", "lr_logit"),
                                            ("--lr-adv", "inf", "lr_adv"),
                                            ("--momentum", "nan", "momentum"),
                                            ("--weight-decay-logit", "nan", "weight_decay_logit"),
                                            ("--weight-decay-adv", "inf", "weight_decay_adv"),
                                            ("--noise-std", "nan", "noise_std")])
def test_train_refuses_non_finite_values_up_front(tmp_path, capsys, flag, value, key):
    code = main(_tiny_train(tmp_path) + [flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key} must be") and "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.csv").exists()


@pytest.mark.parametrize("flags,message", [
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--data-seed", "-1"], "data_seed must be >= 0, got -1"),
    (["--method", "l1"], "method 'l1' needs at least 2 networks"),
    (["--method", "l1_kd"], "method 'l1_kd' needs at least 2 networks"),
], ids=["seed", "data_seed", "l1_one_net", "l1_kd_one_net"])
def test_train_refuses_bad_config_before_writing(tmp_path, capsys, flags, message):
    code = main(_tiny_train(tmp_path) + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_synth_data_refuses_negative_seed(tmp_path, capsys):
    code = main(["synth-data", "--seed", "-1", "--images", str(tmp_path / "i.idx"),
                 "--labels", str(tmp_path / "l.idx")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "seed >= 0" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_data_refuses_non_finite_noise_std(tmp_path, capsys, value):
    code = main(["synth-data", "--num-classes", "3", "--per-class", "4", "--noise-std", value,
                 "--images", str(tmp_path / "i.idx"), "--labels", str(tmp_path / "l.idx")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and f"noise_std finite and >= 0, got {value}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,message", [
    (["--method", "afd", "--archs", "tiny-a,tiny-a", "--image-size", "8"],
     "discriminator needs spatial extent >= 4, got 2x2"),
    (["--method", "l1", "--archs", "conv:8:3:1-bn-relu-pool:2,conv:8:3:1-bn-relu"],
     "feature shapes differ"),
], ids=["afd_2x2_features", "l1_unequal_features"])
def test_train_refuses_feature_maps_the_plan_cannot_take_before_writing(tmp_path, capsys,
                                                                        flags, message):
    code = main(["train", *flags, "--num-classes", "3", "--epochs", "1",
                 "--per-class-train", "8", "--per-class-test", "4",
                 "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_refuses_malformed_config_file_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("method = vanilla\nbatch_size = big\n")
    code = main(["train", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "'batch_size'" in err and "Traceback" not in err


@pytest.mark.parametrize("command,flag", [("train", "--config"), ("eval", "--checkpoint"),
                                          ("train", "--resume")])
def test_missing_file_is_an_error_not_a_traceback(tmp_path, capsys, command, flag):
    missing = tmp_path / "nope"
    argv = _tiny_train(tmp_path)[1:] + [flag, str(missing)]
    code = main([command] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("command,content", [
    ("eval", one_entry_afdk(b"net0/\xff", (1,))),
    ("eval", one_entry_afdk(b"x", (0x10000,) * 4)),
    ("train", struct.pack(">IIII", 0x00000803, *(0xFFFFFFFF,) * 3)),
], ids=["non_utf8_entry_name", "dims_past_int64", "idx_header_past_any_file_size"])
def test_malformed_file_is_an_error_not_a_traceback(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(content)
    if command == "train":
        files = ["--data-source", "idx", "--train-images", str(bad), "--train-labels", str(bad),
                 "--test-images", str(bad), "--test-labels", str(bad)]
    else:
        files = ["--checkpoint", str(bad)]
    code = main([command] + _tiny_train(tmp_path)[1:] + files)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {bad}:") and "Traceback" not in err


@pytest.mark.parametrize("which", ["images", "labels"])
def test_train_refuses_idx_file_with_trailing_bytes(tmp_path, capsys, which):
    files = {"images": tmp_path / "d.images.idx", "labels": tmp_path / "d.labels.idx"}
    assert main(["synth-data", "--num-classes", "3", "--per-class", "4", "--image-size", "16",
                 "--images", str(files["images"]), "--labels", str(files["labels"])]) == 0
    with open(files[which], "ab") as f:
        f.write(bytes(70))
    code = main(_tiny_train(tmp_path) + [
        "--data-source", "idx",
        "--train-images", str(files["images"]), "--train-labels", str(files["labels"]),
        "--test-images", str(files["images"]), "--test-labels", str(files["labels"])])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {files[which]}: 70 trailing bytes") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_idx_labels_past_num_classes_are_refused_before_anything_runs(run_dir, tmp_path,
                                                                      capsys):
    img, lbl = tmp_path / "d.images.idx", tmp_path / "d.labels.idx"
    assert main(["synth-data", "--num-classes", "6", "--per-class", "2", "--image-size", "16",
                 "--images", str(img), "--labels", str(lbl)]) == 0
    files = ["--data-source", "idx", "--train-images", str(img), "--train-labels", str(lbl),
             "--test-images", str(img), "--test-labels", str(lbl)]
    for argv in (_tiny_train(tmp_path / "idx") + files, ["eval"] + _common_flags(run_dir) + files):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {lbl}: label 5 is out of range [0, 3)")
        assert "Traceback" not in err
    assert not (tmp_path / "idx").exists()


@pytest.mark.parametrize("empty", ["train", "test"])
def test_an_empty_idx_split_is_refused_before_anything_is_written(tmp_path, capsys, empty):
    """An empty training split would standardize by a NaN mean and save a
    checkpoint that cannot be opened."""
    files = {split: (tmp_path / f"{split}.images.idx", tmp_path / f"{split}.labels.idx")
             for split in ("train", "test")}
    full = "test" if empty == "train" else "train"
    assert main(["synth-data", "--num-classes", "3", "--per-class", "4", "--image-size", "16",
                 "--images", str(files[full][0]), "--labels", str(files[full][1])]) == 0
    data.save_idx(data.Dataset(np.zeros((0, 1, 16, 16), np.float32), np.zeros(0, np.int64)),
                  *files[empty])
    code = main(_tiny_train(tmp_path) + [
        "--data-source", "idx", "--image-size", "16",
        "--train-images", str(files["train"][0]), "--train-labels", str(files["train"][1]),
        "--test-images", str(files["test"][0]), "--test-labels", str(files["test"][1])])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {files[empty][0]}: the split holds no images")
    assert not (tmp_path / "run").exists()


def test_gradcam_default_target_is_the_predicted_class(run_dir, tmp_path, capsys):
    flags = _common_flags(run_dir) + ["--index", "1", "--net", "1"]
    assert main(["gradcam"] + flags + ["--out", str(tmp_path / "default.pgm")]) == 0
    default_line = capsys.readouterr().out
    config = data.build_config(overrides=dict(
        method="afd", archs="tiny-a,tiny-a", num_classes="3", batch_size="16",
        per_class_train="8", per_class_test="4", image_size="16", seed="0"))
    plan, test = restore_run(config, run_dir / "checkpoint_final.afdk")
    with eval_mode(plan.nets[1]), no_grad():
        predicted = int(plan.nets[1].forward(Tensor(test.images[1:2]))[1].data.argmax())
    assert main(["gradcam"] + flags + ["--target-class", str(predicted),
                                       "--out", str(tmp_path / "explicit.pgm")]) == 0
    explicit_line = capsys.readouterr().out
    assert default_line == explicit_line.replace("explicit.pgm", "default.pgm")
    assert default_line.endswith(f"class {predicted})\n")
    assert (tmp_path / "default.pgm").read_bytes() == (tmp_path / "explicit.pgm").read_bytes()
