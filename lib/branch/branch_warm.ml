(* Warming touch mode for the frontend predictors: the branch-side
   counterpart of Memory_system's warm_* interface.  A touch performs
   exactly the predictor updates the detail fetch stage would perform on
   the same dynamic micro-op — TAGE predict-and-update, BTB install on a
   correctly-predicted taken branch, RAS push/pop — without modelling any
   of its timing consequences (no stall, no redirect, no statistics of
   its own; the predictors' internal counters still advance). *)

type t = {
  tage : Tage.t;
  btb : Btb.t;
  ras : Ras.t;
}

let create ~btb_entries ~ras_depth =
  { tage = Tage.create ();
    btb = Btb.create ~entries:btb_entries ();
    ras = Ras.create ~depth:ras_depth () }

let touch t (d : Executor.dyn) =
  match d.Executor.op with
  | Isa.Branch _ ->
    let predicted = Tage.predict_and_update t.tage ~pc:d.Executor.pc ~taken:d.Executor.taken in
    (* The detail fetch stage installs the target only on a correctly
       predicted taken branch (a mispredict redirects before the BTB is
       consulted); warming mirrors that so BTB contents converge to what
       a detail run reaching the same point would hold. *)
    if predicted && d.Executor.taken then
      Btb.update t.btb ~pc:d.Executor.pc ~target:d.Executor.next_pc
  | Isa.Call -> Ras.push t.ras (d.Executor.pc + 1)
  | Isa.Ret -> ignore (Ras.pop_value t.ras)
  | _ -> ()
