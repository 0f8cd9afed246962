"""JSON Schemas for every document the command-line tool writes. The input
formats are defined by their loaders alone: ``qstate.state_from_obj`` and
``ontomodel.abstract_model_from_obj``."""

COMPLEX_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

STATE = {
    "type": "object",
    "required": ["dim", "amplitudes"],
    "properties": {
        "dim": {"type": "integer", "minimum": 2},
        "amplitudes": {"type": "array", "items": COMPLEX_PAIR, "minItems": 2},
    },
}

BASIS = {
    "type": "object",
    "required": ["dim", "vectors"],
    "properties": {
        "dim": {"type": "integer", "minimum": 2},
        "vectors": {"type": "array", "items": STATE, "minItems": 2},
    },
}

FAMILY = {
    "type": "object",
    "required": ["dim", "bases"],
    "properties": {
        "dim": {"type": "integer", "minimum": 2},
        "subspace_dim": {"type": "integer", "minimum": 2},
        "bases": {"type": "array", "items": BASIS, "minItems": 1},
    },
}

_ENVELOPE = {
    "command": {"type": "string"},
    "version": {"type": "string"},
    "seed": {"type": ["integer", "null"]},
}

MUB_OUTPUT = {
    "type": "object",
    "required": ["command", "version", "family", "verification"],
    "properties": {
        **_ENVELOPE,
        "family": FAMILY,
        "verification": {
            "type": "object",
            "required": ["max_cross_deviation", "orthonormality_deviation"],
            "properties": {
                "max_cross_deviation": {"type": "number"},
                "orthonormality_deviation": {"type": "number"},
            },
        },
    },
}

PP_CHECK_OUTPUT = {
    "type": "object",
    "required": ["command", "version", "seed", "x1", "x2", "x3",
                 "pp_incompatible", "epsilon", "triple_sum", "converged",
                 "restarts_used", "evaluations", "dual_gap", "basis"],
    "properties": {
        **_ENVELOPE,
        "x1": {"type": "number"},
        "x2": {"type": "number"},
        "x3": {"type": "number"},
        "pp_incompatible": {"type": "boolean"},
        "epsilon": {"type": "number"},
        "triple_sum": {"type": "number"},
        "converged": {"type": "boolean"},
        "restarts_used": {"type": "integer"},
        "evaluations": {"type": "integer", "minimum": 1},
        "dual_gap": {"type": "number", "minimum": 0},
        "basis": {"type": "array", "items": {"type": "array", "items": COMPLEX_PAIR}},
    },
}

BOUND_OUTPUT = {
    "type": "object",
    "required": ["command", "version", "report"],
    "properties": {
        **_ENVELOPE,
        "report": {
            "type": "object",
            "required": ["dim"],
            "properties": {
                "dim": {"type": "integer"},
                "subdim": {"type": "integer"},
                "exact_bound": {"type": "number"},
                "coarse_two_over_subdim": {"type": "number"},
                "coarse_four_over_dim_minus_one": {"type": "number"},
                "noise_adjusted": {"type": ["number", "null"]},
                "noise_adjusted_coarse": {"type": ["number", "null"]},
                "threshold_ok": {"type": ["boolean", "null"]},
                "threshold": {"type": ["number", "null"]},
            },
        },
    },
}

D3_OUTPUT = {
    "type": "object",
    "required": ["command", "version", "seed", "restarts", "entries",
                 "family_sums", "grand_noise_sum", "overlap_weight_sum", "k_bound"],
    "properties": {
        **_ENVELOPE,
        "restarts": {"type": "integer"},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["alpha", "i", "beta", "j", "epsilon", "triple_sum",
                             "converged", "restarts_used", "evaluations",
                             "dual_gap", "basis"],
                "properties": {
                    "alpha": {"type": "integer"},
                    "i": {"type": "integer"},
                    "beta": {"type": "integer"},
                    "j": {"type": "integer"},
                    "epsilon": {"type": "number"},
                    "triple_sum": {"type": "number"},
                    "converged": {"type": "boolean"},
                    "restarts_used": {"type": "integer"},
                    "evaluations": {"type": "integer", "minimum": 1},
                    "dual_gap": {"type": "number", "minimum": 0},
                    "basis": {"type": "array",
                              "items": {"type": "array", "items": COMPLEX_PAIR}},
                },
            },
        },
        "family_sums": {"type": "object", "additionalProperties": {"type": "number"}},
        "grand_noise_sum": {"type": "number"},
        "overlap_weight_sum": {"type": "number"},
        "k_bound": {"type": "number"},
    },
}

MODEL_VERIFY_OUTPUT = {
    "type": "object",
    "required": ["command", "version", "seed", "model"],
    "properties": {
        **_ENVELOPE,
        "model": {"type": "string"},
        "pairs": {"type": "integer"},
        "born_worst": {"type": "number"},
        "overlap_worst": {"type": "number"},
        "overlap_inequality_worst": {"type": "number"},
        "structure": {"type": "object"},
    },
}

SIMULATE_OUTPUT = {
    "type": "object",
    "required": ["command", "version", "seed", "dim", "shots", "noise",
                 "frequencies", "f4_mass", "eps1", "eps2", "k_bound",
                 "noise_budget_ok"],
    "properties": {
        **_ENVELOPE,
        "dim": {"type": "integer"},
        "shots": {"type": "integer"},
        "noise": {
            "type": "object",
            "required": ["channel"],
            "properties": {
                "channel": {"type": "string"},
                "parameter": {"type": ["number", "null"]},
            },
        },
        "frequencies": {"type": "object"},
        "f4_mass": {"type": "object"},
        "per_triple": {"type": "object"},
        "per_pair": {"type": "object"},
        "eps1": {"type": "number"},
        "eps2": {"type": "number"},
        "k_bound": {"type": "number"},
        "noise_budget_ok": {"type": "boolean"},
    },
}

BONFERRONI_OUTPUT = {
    "type": "object",
    "required": ["command", "version", "seed", "trials", "points",
                 "min_slack", "violations"],
    "properties": {
        **_ENVELOPE,
        "trials": {"type": "integer"},
        "points": {"type": "integer"},
        "min_slack": {"type": "number"},
        "violations": {"type": "integer"},
    },
}
