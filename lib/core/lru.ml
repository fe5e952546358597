(* Bounded LRU table.  Each binding lives in a node of a doubly-linked
   recency list (head = most recently used, tail = least); the hash
   table maps keys to their nodes, so a refresh is an unlink plus a
   push at the head and an eviction pops the tail. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable newer : ('k, 'v) node option;
  mutable older : ('k, 'v) node option;
}

type ('k, 'v) t = {
  cap : int option;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable evictions : int;
}

let create ?cap () =
  (match cap with
  | Some c when c < 1 -> invalid_arg "Lru.create: cap must be >= 1"
  | _ -> ());
  { cap; table = Hashtbl.create 16; head = None; tail = None; evictions = 0 }

let unlink t n =
  (match n.newer with Some p -> p.older <- n.older | None -> t.head <- n.older);
  (match n.older with Some s -> s.newer <- n.newer | None -> t.tail <- n.newer);
  n.newer <- None;
  n.older <- None

let push_head t n =
  n.older <- t.head;
  (match t.head with Some h -> h.newer <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let refresh t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_head t n

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some n ->
    refresh t n;
    Some n.value
  | None -> None

let peek t k = Option.map (fun n -> n.value) (Hashtbl.find_opt t.table k)
let mem t k = Hashtbl.mem t.table k

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
    n.value <- v;
    refresh t n
  | None ->
    let n = { key = k; value = v; newer = None; older = None } in
    Hashtbl.replace t.table k n;
    push_head t n

let trim t =
  match t.cap with
  | None -> 0
  | Some cap ->
    let dropped = ref 0 in
    while Hashtbl.length t.table > cap do
      match t.tail with
      | None -> assert false (* length > cap >= 1 *)
      | Some n ->
        unlink t n;
        Hashtbl.remove t.table n.key;
        incr dropped
    done;
    t.evictions <- t.evictions + !dropped;
    !dropped

let length t = Hashtbl.length t.table

let fold f t init =
  let rec go acc = function
    | None -> acc
    | Some n -> go (f n.key n.value acc) n.older
  in
  go init t.head

let evictions t = t.evictions
