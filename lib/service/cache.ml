module Metrics = Lbcc_obs.Metrics

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

type 'v entry = { value : 'v; mutable tick : int }

type 'v t = {
  table : (string, 'v entry) Hashtbl.t;
  capacity : int;
  mutable clock : int; (* monotone recency counter *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable metrics : Metrics.t option;
  mutable prefix : string;
}

let create ?(capacity = 8) ?metrics ?(metrics_prefix = "cache") () =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    table = Hashtbl.create (max 1 capacity);
    capacity;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    metrics;
    prefix = metrics_prefix;
  }

let size t = Hashtbl.length t.table

(* Every counter the cache maintains is mirrored into the attached registry
   as it changes, so consumers (the BATCH bench, the serve daemon's stats
   endpoint) read "<prefix>.hits" / ".misses" / ".evictions" and the
   ".size" gauge instead of reaching for the ad-hoc ints in [stats]. *)
let bump t name =
  Metrics.inc t.metrics (t.prefix ^ "." ^ name)

let gauge_size t =
  Metrics.set_gauge t.metrics (t.prefix ^ ".size") (float_of_int (size t))

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
      t.hits <- t.hits + 1;
      bump t "hits";
      touch t e;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      bump t "misses";
      None

let evict_lru t =
  let victim =
    (* Ticks come from a monotone counter, so the minimum is unique and the
       fold's visit order cannot change which entry wins. *)
    (* lbcc-lint: allow det-unordered-hashtbl *)
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best <= e.tick -> acc
        | _ -> Some (key, e.tick))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      bump t "evictions"
  | None -> ()

let add t key value =
  if t.capacity > 0 then begin
    if not (Hashtbl.mem t.table key) && Hashtbl.length t.table >= t.capacity
    then evict_lru t;
    t.clock <- t.clock + 1;
    Hashtbl.replace t.table key { value; tick = t.clock };
    gauge_size t
  end

let find_or_add t key build =
  match find t key with
  | Some v -> (v, true)
  | None ->
      let v = build () in
      add t key v;
      (v, false)

let remove t key =
  Hashtbl.remove t.table key;
  gauge_size t

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    size = size t;
    capacity = t.capacity;
  }
