type config = {
  table_entries : int;
  tag_bits : int;
  counter_bits : int;
  history_lengths : int array;
  base_entries : int;
}

let default_config =
  { table_entries = 1024;
    tag_bits = 9;
    counter_bits = 3;
    history_lengths = [| 5; 11; 21; 39; 70; 130 |];
    base_entries = 4096 }

type table = {
  hist_len : int;
  tags : int array;
  ctrs : int array;
  useful : int array;
  (* Folded global history for this table's index and tag hashes,
     maintained incrementally as outcomes are pushed (see
     [update_fold]): always equal to the direct chunked-XOR fold of the
     last [hist_len] outcome bits. *)
  mutable f_idx : int;
  mutable f_tag : int;
}

type t = {
  config : config;
  base : Bimodal.t;
  tables : table array;
  history : Bytes.t;  (* circular buffer of outcome bits, newest at [head] *)
  mutable head : int;
  rng : Prng.t;
  mutable predictions : int;
  mutable mispredictions : int;
  mutable updates_since_reset : int;
  (* scratch for [lookup]: provider/alternate bank and index, so the
     per-branch component search returns nothing boxed *)
  mutable lk_provider : int;
  mutable lk_pidx : int;
  mutable lk_alt : int;
  mutable lk_aidx : int;
}

let history_capacity = 256

let create ?(config = default_config) ?(seed = 0x7a9e) () =
  if config.table_entries land (config.table_entries - 1) <> 0 then
    invalid_arg "Tage.create: table_entries not a power of two";
  let table hist_len =
    { hist_len;
      tags = Array.make config.table_entries (-1);
      ctrs = Array.make config.table_entries (1 lsl (config.counter_bits - 1));
      useful = Array.make config.table_entries 0;
      f_idx = 0;  (* fold of the initial all-zero history *)
      f_tag = 0 }
  in
  { config;
    base = Bimodal.create ~entries:config.base_entries ();
    tables = Array.map table config.history_lengths;
    history = Bytes.make history_capacity '\000';
    head = 0;
    rng = Prng.create seed;
    predictions = 0;
    mispredictions = 0;
    updates_since_reset = 0;
    lk_provider = -1;
    lk_pidx = 0;
    lk_alt = -1;
    lk_aidx = 0 }

let history_bit t i =
  (* i = 0 is the most recent outcome; capacity is a power of two, so the
     wrap (including the negative range of [head - 1 - i]) is a mask. *)
  Char.code (Bytes.get t.history ((t.head - 1 - i) land (history_capacity - 1)))

(* Fold the last [len] history bits into [bits] bits by chunked XOR.
   Top-level recursion (runs twice per bank per branch — a closure here
   would dominate the frontend's allocation without flambda). *)
let rec fold_bits t len bits i pos chunk acc =
  if i = len then acc lxor chunk
  else
    let chunk = chunk lor (history_bit t i lsl pos) in
    if pos + 1 = bits then fold_bits t len bits (i + 1) 0 0 (acc lxor chunk)
    else fold_bits t len bits (i + 1) (pos + 1) chunk acc

let folded_history t ~len ~bits = fold_bits t len bits 0 0 0 0

let idx_bits t =
  (* log2 of table_entries *)
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  log2 t.config.table_entries 0

(* One push of outcome bit [b] shifts every history index up by one, which
   rotates each bit's chunk position up by one; the incoming bit lands at
   position 0 and the outgoing bit (previously at index [len - 1], now
   fallen off) is cancelled at position [len mod bits].  So the folded
   register advances by rotate-left-1, XOR in, XOR out — equal to
   re-folding the whole window (see [folded_history]). *)
let fold_step fold ~bits ~b ~out ~out_pos =
  let rot = ((fold lsl 1) lor (fold lsr (bits - 1))) land ((1 lsl bits) - 1) in
  rot lxor b lxor (out lsl out_pos)

let table_index t bank pc =
  let bits = idx_bits t in
  let tb = t.tables.(bank) in
  (pc lxor (pc lsr bits) lxor tb.f_idx lxor (bank * 0x1f1))
  land (t.config.table_entries - 1)

let table_tag t bank pc =
  let bits = t.config.tag_bits in
  let tb = t.tables.(bank) in
  (pc lxor (pc lsr (bits + 1)) lxor tb.f_tag) land ((1 lsl bits) - 1)

let ctr_max t = (1 lsl t.config.counter_bits) - 1
let ctr_mid t = 1 lsl (t.config.counter_bits - 1)

(* Find provider and alternate components for this pc, into the lk_*
   scratch fields (this runs once per branch; a tuple return here would
   be a per-branch allocation). *)
let lookup t pc =
  t.lk_provider <- -1;
  t.lk_pidx <- 0;
  t.lk_alt <- -1;
  t.lk_aidx <- 0;
  for bank = 0 to Array.length t.tables - 1 do
    let idx = table_index t bank pc in
    if t.tables.(bank).tags.(idx) = table_tag t bank pc then begin
      t.lk_alt <- t.lk_provider;
      t.lk_aidx <- t.lk_pidx;
      t.lk_provider <- bank;
      t.lk_pidx <- idx
    end
  done

let table_pred t bank idx = t.tables.(bank).ctrs.(idx) >= ctr_mid t

let push_history t taken =
  (* Advance every table's folded registers before the buffer moves: the
     outgoing bit of a length-[len] window is the current index len - 1. *)
  let b = if taken then 1 else 0 in
  let ib = idx_bits t in
  let tb_bits = t.config.tag_bits in
  for bank = 0 to Array.length t.tables - 1 do
    let tb = t.tables.(bank) in
    let out = history_bit t (tb.hist_len - 1) in
    tb.f_idx <- fold_step tb.f_idx ~bits:ib ~b ~out ~out_pos:(tb.hist_len mod ib);
    tb.f_tag <-
      fold_step tb.f_tag ~bits:tb_bits ~b ~out ~out_pos:(tb.hist_len mod tb_bits)
  done;
  Bytes.set t.history t.head (if taken then '\001' else '\000');
  t.head <- (t.head + 1) land (history_capacity - 1)

(* Saturating counter updates avoid polymorphic [min]/[max] (a C call per
   use) throughout this module: these run on every conditional branch. *)
let bump ctrs idx ~taken ~ceiling =
  let c = ctrs.(idx) in
  if taken then (if c < ceiling then ctrs.(idx) <- c + 1)
  else if c > 0 then ctrs.(idx) <- c - 1

(* Free-entry (useful = 0) scan helpers for [allocate].  The global
   history is stable while allocating (it is pushed afterwards), so
   [table_index] is safe to recompute across passes. *)
let rec free_count t pc bank n acc =
  if bank = n then acc
  else
    let idx = table_index t bank pc in
    free_count t pc (bank + 1) n
      (if t.tables.(bank).useful.(idx) = 0 then acc + 1 else acc)

let rec nth_free t pc bank k =
  let idx = table_index t bank pc in
  if t.tables.(bank).useful.(idx) = 0 then
    if k = 0 then bank else nth_free t pc (bank + 1) (k - 1)
  else nth_free t pc (bank + 1) k

let allocate t pc ~taken ~above =
  (* Try to allocate an entry in a table with longer history than the
     provider; prefer entries whose useful counter is zero. *)
  let n = Array.length t.tables in
  let count = free_count t pc above n 0 in
  if count = 0 then
    (* No free entry: age the competing entries instead. *)
    for bank = above to n - 1 do
      let idx = table_index t bank pc in
      let u = t.tables.(bank).useful in
      if u.(idx) > 0 then u.(idx) <- u.(idx) - 1
    done
  else begin
    (* Bias allocation toward shorter histories, as in the original TAGE.
       The draw sequence is load-bearing: with one candidate only the
       [Prng.int count] draw happens (the && short-circuits), with more
       the bias draw happens first and the index draw only on the 1-in-4
       unbiased path. *)
    let bank =
      if count > 1 && Prng.int t.rng 4 < 3 then nth_free t pc above 0
      else nth_free t pc above (Prng.int t.rng count)
    in
    let idx = table_index t bank pc in
    let tb = t.tables.(bank) in
    tb.tags.(idx) <- table_tag t bank pc;
    tb.ctrs.(idx) <- (if taken then ctr_mid t else ctr_mid t - 1);
    tb.useful.(idx) <- 0
  end

let reset_useful t =
  Array.iter
    (fun tb -> Array.iteri (fun i u -> tb.useful.(i) <- u lsr 1) tb.useful)
    t.tables

let predict_and_update t ~pc ~taken =
  lookup t pc;
  let provider = t.lk_provider and pidx = t.lk_pidx in
  let alt = t.lk_alt and aidx = t.lk_aidx in
  let alt_pred = if alt >= 0 then table_pred t alt aidx else Bimodal.predict t.base ~pc in
  let pred = if provider >= 0 then table_pred t provider pidx else alt_pred in
  t.predictions <- t.predictions + 1;
  if pred <> taken then t.mispredictions <- t.mispredictions + 1;
  (* Train the provider (or the base when no table matched). *)
  if provider >= 0 then begin
    let tb = t.tables.(provider) in
    bump tb.ctrs pidx ~taken ~ceiling:(ctr_max t);
    if pred <> alt_pred then begin
      let u = tb.useful.(pidx) in
      if pred = taken then (if u < 3 then tb.useful.(pidx) <- u + 1)
      else if u > 0 then tb.useful.(pidx) <- u - 1;
      (* When the provider was wrong but the alternate was right, also train
         the alternate so it keeps its accuracy. *)
      if pred <> taken then begin
        if alt >= 0 then bump t.tables.(alt).ctrs aidx ~taken ~ceiling:(ctr_max t)
        else Bimodal.update t.base ~pc ~taken
      end
    end
  end
  else Bimodal.update t.base ~pc ~taken;
  (* Allocate a longer-history entry on a misprediction. *)
  if pred <> taken && provider < Array.length t.tables - 1 then
    allocate t pc ~taken ~above:(provider + 1);
  push_history t taken;
  t.updates_since_reset <- t.updates_since_reset + 1;
  if t.updates_since_reset >= 1 lsl 18 then begin
    t.updates_since_reset <- 0;
    reset_useful t
  end;
  pred

let self_check t =
  let ib = idx_bits t in
  let ok = ref true in
  Array.iter
    (fun tb ->
      if
        tb.f_idx <> folded_history t ~len:tb.hist_len ~bits:ib
        || tb.f_tag <> folded_history t ~len:tb.hist_len ~bits:t.config.tag_bits
      then ok := false)
    t.tables;
  !ok

let mispredictions t = t.mispredictions
let predictions t = t.predictions
