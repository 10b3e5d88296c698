"""Command-line entry point.

Subcommands: ``synth`` (generate a synthetic panel), ``ingest`` (validate a
panel and print its fingerprint), ``run`` (execute the experiment matrix),
``report`` (average tables and p-value tables from a result store) and
``ttest`` (ad-hoc two-sample test on two score columns).

Flags are long-form only. Every ``run`` flag mirrors a key of the run
config file; when both are given and disagree, the config file wins and a
warning goes to stderr. Exit codes: 0 success, 2 unreadable input, 3
validation or calibration failure, 4 execution or output failure, 5 report gaps.

All subcommands are deterministic given their inputs and seeds. Reports are
tables only; NaN cells are rendered as the literal ``nan``.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from . import stats
from .data_model import CatalogError, ParseError, parse_catalog, write_catalog
from .exposure import compute_exposure, write_exposure_table
from .runner import (MatrixConfig, RunnerError, StoreError, _spec_counts,
                     enumerate_experiments, load_score_records, matrix_counts,
                     run_matrix)
from .synthgen import CalibrationError, GenConfig, generate_panel

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EXECUTION = 4
EXIT_GAPS = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def cmd_synth(args) -> int:
    try:
        doc = _load_json(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_PARSE, f"cannot read generator config: {exc}")
    try:
        config = GenConfig.from_dict(doc)
        catalog = generate_panel(config)
    except (CalibrationError, TypeError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    try:
        write_catalog(catalog, args.out_dir)
    except OSError as exc:
        return _fail(EXIT_EXECUTION, f"cannot write panel: {exc}")
    print(f"wrote panel: {len(catalog.users)} users, {len(catalog.products)} products, "
          f"{len(catalog.advert_matched_products)} advert-matched, "
          f"{len(catalog.viewing)} viewing rows, {len(catalog.broadcasts)} broadcasts")
    print(f"fingerprint: {catalog.fingerprint()}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    try:
        catalog = parse_catalog(args.data_dir)
    except ParseError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except CatalogError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    print(f"users: {len(catalog.users)}")
    print(f"products: {len(catalog.products)}")
    print(f"advert-matched products: {len(catalog.advert_matched_products)}")
    print(f"survey rows: {len(catalog.responses)}")
    print(f"viewing rows: {len(catalog.viewing)}")
    print(f"broadcast rows: {len(catalog.broadcasts)}")
    print(f"fingerprint: {catalog.fingerprint()}")
    if args.dump_exposure:
        matrix = compute_exposure(list(catalog.viewing), list(catalog.broadcasts))
        try:
            write_exposure_table(matrix, args.dump_exposure)
        except OSError as exc:
            return _fail(EXIT_EXECUTION, f"cannot write exposure table: {exc}")
        print(f"exposure table: {args.dump_exposure}")
    return EXIT_OK


def _merge_run_config(args, doc: dict) -> dict:
    """Flags mirror config keys; the config file wins conflicts, loudly."""
    merged = dict(doc)
    for key, flag_value in (("out_dir", args.out_dir),
                            ("global_seed", args.global_seed),
                            ("workers", args.workers)):
        if flag_value is None:
            continue
        if key in merged and merged[key] != flag_value:
            print(f"warning: --{key.replace('_', '-')}={flag_value} conflicts with "
                  f"config value {merged[key]!r}; config file wins", file=sys.stderr)
        else:
            merged[key] = flag_value
    return merged


def cmd_run(args) -> int:
    try:
        doc = _load_json(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_PARSE, f"cannot read run config: {exc}")
    if not isinstance(doc, dict):
        return _fail(EXIT_PARSE, "run config must be a JSON object")
    merged = _merge_run_config(args, doc)

    sources = [k for k in ("data_dir", "synth", "synth_config") if merged.get(k)]
    try:
        matrix = MatrixConfig.from_dict(merged.get("matrix", {}))
    except (TypeError, ValueError) as exc:  # RunnerError is a ValueError
        return _fail(EXIT_VALIDATION, f"bad matrix config: {exc}")
    try:
        global_seed = int(merged.get("global_seed", 0))
        workers = int(merged.get("workers", 1))
    except (TypeError, ValueError) as exc:
        return _fail(EXIT_VALIDATION, f"bad global_seed or workers: {exc}")

    if args.dry_run and not sources:
        # Counting needs only base counts; reference-scale totals are
        # verifiable without materializing any catalog.
        n_products = merged.get("assume_product_bases")
        n_users = merged.get("assume_user_bases")
        if not all(type(n) is int and n >= 0 for n in (n_products, n_users)):
            return _fail(EXIT_VALIDATION,
                         "dry run without a data source needs assume_product_bases "
                         "and assume_user_bases, each a non-negative integer")
        _print_counts(matrix_counts(matrix, n_products, n_users))
        return EXIT_OK

    if len(sources) != 1:
        return _fail(EXIT_VALIDATION,
                     "run config needs exactly one data source: data_dir, synth "
                     "or synth_config")
    try:
        if merged.get("data_dir"):
            catalog = parse_catalog(merged["data_dir"])
        else:
            gen_doc = (merged["synth"] if merged.get("synth")
                       else _load_json(merged["synth_config"]))
            catalog = generate_panel(GenConfig.from_dict(gen_doc))
    except ParseError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_PARSE, f"cannot read generator config: {exc}")
    except (CatalogError, CalibrationError, TypeError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))

    try:
        counts = _spec_counts(matrix, enumerate_experiments(catalog, matrix))
    except RunnerError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    _print_counts(counts)
    if args.dry_run:
        return EXIT_OK

    out_dir = merged.get("out_dir")
    if not out_dir or not isinstance(out_dir, str):
        return _fail(EXIT_VALIDATION, "run config needs an out_dir path")

    progress = None
    if args.progress:
        def progress(done, total, spec_id, status):
            print(json.dumps({"done": done, "total": total,
                              "spec_id": spec_id, "status": status}))

    try:
        manifest = run_matrix(
            catalog, matrix, out_dir,
            global_seed=global_seed, workers=workers,
            limit=args.limit, resume=args.resume, progress=progress)
    except RunnerError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        return _fail(EXIT_EXECUTION, f"result store failure: {exc}")
    except BrokenExecutor as exc:
        return _fail(EXIT_EXECUTION, f"a worker process died ({exc}); committed "
                     f"results are kept, rerun with --resume to finish the store")
    print(f"executed: {manifest['executed']} of {manifest['spec_count']} specs "
          f"in {manifest['wall_seconds']}s")
    return EXIT_OK


def _print_counts(counts: dict) -> None:
    print(f"bases: {counts['bases']}")
    print(f"canonical specs: {counts['canonical_specs']}")
    if "expanded_inputs" in counts:
        print(f"inputs: {counts['expanded_inputs']}")
        print(f"experiments per model: {counts['expanded_per_model']}")
        print(f"total experiments: {counts['expanded_total']}")


def cmd_report(args) -> int:
    try:
        records, failures = load_score_records(args.store)
    except StoreError as exc:
        return _fail(EXIT_PARSE, str(exc))
    if not records:
        return _fail(EXIT_VALIDATION, "result store holds no successful experiments")
    if failures:
        print(f"note: {len(failures)} failed experiments excluded from the report",
              file=sys.stderr)
    try:
        average_paths = stats.write_average_tables(records, args.out_dir,
                                                   general_average=args.general_average)
        reports, gaps = stats.hypothesis_suite(records, paired=args.paired)
        pvalue_paths = stats.write_pvalue_tables(reports, args.out_dir)
        document_path = stats.write_report_document(records, reports, gaps, args.out_dir,
                                                    general_average=args.general_average)
    except OSError as exc:
        return _fail(EXIT_EXECUTION, f"cannot write report: {exc}")
    for path in [*average_paths, *pvalue_paths, document_path]:
        print(path)
    if gaps:
        print(f"{len(gaps)} missing comparisons listed in "
              f"{document_path.parent / stats._GAPS_FILE}", file=sys.stderr)
        return EXIT_GAPS
    return EXIT_OK


def cmd_ttest(args) -> int:
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read {path}: {exc}")
    lines = text.splitlines()
    if not lines:
        return _fail(EXIT_PARSE, f"{path} is empty")
    delimiter = "\t" if "\t" in lines[0] else ","
    header = lines[0].split(delimiter)
    try:
        col_a = header.index(args.column_a)
        col_b = header.index(args.column_b)
    except ValueError as exc:
        return _fail(EXIT_VALIDATION, f"column not found: {exc}")
    sample_a, sample_b = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(delimiter)
        try:
            sample_a.append(float(fields[col_a]))
            sample_b.append(float(fields[col_b]))
        except (IndexError, ValueError):
            return _fail(EXIT_PARSE, f"{path}:{line_no}: bad numeric row")
    try:
        result = (stats.paired_t_test(sample_a, sample_b) if args.paired
                  else stats.welch_t_test(sample_a, sample_b))
    except ValueError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    print(f"n_a: {result.n_a}\nn_b: {result.n_b}")
    print(f"mean_a: {result.mean_a!r}\nmean_b: {result.mean_b!r}")
    print(f"t: {result.t_stat!r}\ndf: {result.df!r}\np: {result.p_value!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adpredict",
        description="Purchase-behavior predictability benchmark: synthetic "
                    "panels, experiment matrix, score tables and t-tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic panel")
    p.add_argument("--config", required=True, help="generator config (JSON)")
    p.add_argument("--out-dir", required=True, help="directory for the five tables")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a panel and print its fingerprint")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--dump-exposure", default=None,
                   help="also write the exposure audit table to this path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", help="execute the experiment matrix")
    p.add_argument("--config", required=True, help="run config (JSON)")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--global-seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted result store")
    p.add_argument("--dry-run", action="store_true",
                   help="print experiment counts without executing")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many results (smoke runs)")
    p.add_argument("--progress", action="store_true",
                   help="emit one JSON line per completed experiment")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="write average and p-value tables")
    p.add_argument("--store", required=True, help="result store directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--general-average", default="category_means",
                   choices=("category_means", "experiment_means"))
    p.add_argument("--paired", action="store_true",
                   help="pair t-test samples by base id")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("ttest", help="two-sample test on two score columns")
    p.add_argument("--file", required=True, help="delimited file with a header")
    p.add_argument("--column-a", required=True)
    p.add_argument("--column-b", required=True)
    p.add_argument("--paired", action="store_true")
    p.set_defaults(func=cmd_ttest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
