(** The paper's headline findings as checkable claims.

    Each claim pairs a sentence from the paper with the function that
    measures the same quantity on a generated dataset and an acceptance
    band for the {e shape} (we run on a simulator, not the 1991 cluster,
    so absolute equality is not the bar).  The scorecard is printed by
    [dfs_repro facts] and regenerated into EXPERIMENTS.md. *)

type verdict = Reproduced | Near | Off

type claim = {
  c_id : string;  (** e.g. "throughput-per-user" *)
  c_section : string;  (** paper section *)
  c_text : string;  (** the claim, paraphrased from the paper *)
  c_paper : float;  (** the paper's value *)
  c_unit : string;
  c_lo : float;  (** acceptance band *)
  c_hi : float;
  c_measure : Dataset.t -> float;
}

type result = { claim : claim; measured : float; verdict : verdict }

val evaluate : Dataset.t -> result list

val scorecard : Dataset.t -> string
(** Plain-text table of every claim: paper value, measured value, verdict. *)
