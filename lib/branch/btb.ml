(* Set-associative branch target buffer over flat parallel int arrays.
   A per-way record array here would cost ~43k minor words per created
   core — the bulk of a simulation run's setup allocation — and an
   extra indirection on every frontend lookup. *)

type t = {
  assoc : int;
  pcs : int array;  (* per way: tag pc, -1 = invalid *)
  targets : int array;
  lrus : int array;  (* higher = more recently used *)
  set_mask : int;
  mutable clock : int;
}

let create ?(entries = 8192) ?(assoc = 4) () =
  if entries mod assoc <> 0 then invalid_arg "Btb.create: entries not a multiple of assoc";
  let num_sets = entries / assoc in
  if num_sets land (num_sets - 1) <> 0 then
    invalid_arg "Btb.create: number of sets not a power of two";
  { assoc;
    pcs = Array.make entries (-1);
    targets = Array.make entries (-1);
    lrus = Array.make entries 0;
    set_mask = num_sets - 1;
    clock = 0 }

let base_of t pc = (pc land t.set_mask) * t.assoc

let rec find_way pcs pc i stop =
  if i = stop then -1 else if pcs.(i) = pc then i else find_way pcs pc (i + 1) stop

let find_target t ~pc =
  let base = base_of t pc in
  t.clock <- t.clock + 1;
  let i = find_way t.pcs pc base (base + t.assoc) in
  if i >= 0 then begin
    t.lrus.(i) <- t.clock;
    t.targets.(i)
  end
  else -1

let lookup t ~pc =
  match find_target t ~pc with -1 -> None | target -> Some target

let rec lru_way lrus best i stop =
  if i = stop then best else lru_way lrus (if lrus.(i) < lrus.(best) then i else best) (i + 1) stop

let update t ~pc ~target =
  let base = base_of t pc in
  t.clock <- t.clock + 1;
  let i = find_way t.pcs pc base (base + t.assoc) in
  let w = if i >= 0 then i else lru_way t.lrus base (base + 1) (base + t.assoc) in
  t.pcs.(w) <- pc;
  t.targets.(w) <- target;
  t.lrus.(w) <- t.clock
