type params = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
}

type t = {
  params : params;
  line_bits : int;
  num_sets : int;
  set_mask : int;  (* num_sets - 1 when a power of two, else -1 *)
  tags : int array;  (* sets * assoc, -1 = invalid *)
  lru : int array;
  prefetched : bool array;
  assoc : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable prefetch_fills : int;
  mutable prefetch_hits : int;
}

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create params =
  if params.line_bytes land (params.line_bytes - 1) <> 0 then
    invalid_arg "Cache.create: line_bytes not a power of two";
  let num_sets = params.size_bytes / (params.assoc * params.line_bytes) in
  if num_sets <= 0 then invalid_arg "Cache.create: fewer than one set";
  let slots = num_sets * params.assoc in
  { params;
    line_bits = log2 params.line_bytes;
    num_sets;
    set_mask = (if num_sets land (num_sets - 1) = 0 then num_sets - 1 else -1);
    tags = Array.make slots (-1);
    lru = Array.make slots 0;
    prefetched = Array.make slots false;
    assoc = params.assoc;
    clock = 0;
    hits = 0;
    misses = 0;
    prefetch_fills = 0;
    prefetch_hits = 0 }

let params t = t.params

let line_of t addr = addr lsr t.line_bits

(* The L1s have power-of-two set counts, so the hot path is a mask; the
   LLC (1 MiB / 20-way = 819 sets) keeps the division. *)
let set_base t line =
  (if t.set_mask >= 0 then line land t.set_mask else line mod t.num_sets) * t.assoc

(* Set scans as top-level recursions: these run on every cache access,
   and a local [let rec] capturing the tag/LRU arrays would allocate a
   closure per access without flambda. *)
let rec scan_set tags line base i assoc =
  if i = assoc then -1
  else if tags.(base + i) = line then base + i
  else scan_set tags line base (i + 1) assoc

(* Returns the slot holding [line] in its set, or -1. *)
let find_slot t line = scan_set t.tags line (set_base t line) 0 t.assoc

let rec min_lru lru best i stop =
  if i = stop then best
  else min_lru lru (if lru.(i) < lru.(best) then i else best) (i + 1) stop

let victim_slot t line =
  let base = set_base t line in
  min_lru t.lru base (base + 1) (base + t.assoc)

let probe t ~addr = find_slot t (line_of t addr) >= 0

let install t line ~prefetched =
  let slot = victim_slot t line in
  t.tags.(slot) <- line;
  t.clock <- t.clock + 1;
  t.lru.(slot) <- t.clock;
  t.prefetched.(slot) <- prefetched

let access_info t ~addr =
  let line = line_of t addr in
  let slot = find_slot t line in
  if slot >= 0 then begin
    t.clock <- t.clock + 1;
    t.lru.(slot) <- t.clock;
    t.hits <- t.hits + 1;
    if t.prefetched.(slot) then begin
      t.prefetched.(slot) <- false;
      t.prefetch_hits <- t.prefetch_hits + 1;
      `Hit_prefetched
    end
    else `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    install t line ~prefetched:false;
    `Miss
  end

let access t ~addr =
  match access_info t ~addr with
  | `Hit | `Hit_prefetched -> true
  | `Miss -> false

let fill_prefetch t ~addr =
  let line = line_of t addr in
  if find_slot t line < 0 then begin
    install t line ~prefetched:true;
    t.prefetch_fills <- t.prefetch_fills + 1
  end

let invalidate t ~addr =
  let slot = find_slot t (line_of t addr) in
  if slot >= 0 then t.tags.(slot) <- -1

let hits t = t.hits
let misses t = t.misses
let prefetch_fills t = t.prefetch_fills
let prefetch_hits t = t.prefetch_hits
