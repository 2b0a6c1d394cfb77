(** Warming touch mode for the frontend predictors — the branch-side
    counterpart of [Memory_system]'s warming interface, used by sampled
    simulation to carry TAGE/BTB/RAS state through functional
    fast-forward.

    A touch performs exactly the predictor updates the detail fetch stage
    would perform on the same dynamic micro-op, with none of its timing
    consequences.  State warmed this way converges to what a detail run
    reaching the same instruction would hold, so a detail window opened
    after fast-forward starts with realistic predictor contents instead
    of cold tables. *)

type t = {
  tage : Tage.t;
  btb : Btb.t;
  ras : Ras.t;
}

val create : btb_entries:int -> ras_depth:int -> t

val touch : t -> Executor.dyn -> unit
(** Replay one dynamic micro-op into the predictors: TAGE
    predict-and-update on every conditional branch, BTB install on a
    correctly predicted taken branch, RAS push on [Call] / pop on
    [Ret].  Non-control micro-ops are ignored. *)
