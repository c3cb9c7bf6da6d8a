type t = {
  mutable e_search : float;
  mutable e_write : float;
  mutable e_merge : float;
  mutable e_select : float;
  mutable e_overhead : float;
  mutable n_search_ops : int;
  mutable n_query_cycles : int;
  mutable n_write_ops : int;
  mutable n_banks : int;
  mutable n_mats : int;
  mutable n_arrays : int;
  mutable n_subarrays : int;
  mutable n_kernel_binary : int;
  mutable n_kernel_nibble : int;
  mutable n_kernel_generic : int;
  mutable n_kernel_early_exit : int;
}

let create () =
  {
    e_search = 0.;
    e_write = 0.;
    e_merge = 0.;
    e_select = 0.;
    e_overhead = 0.;
    n_search_ops = 0;
    n_query_cycles = 0;
    n_write_ops = 0;
    n_banks = 0;
    n_mats = 0;
    n_arrays = 0;
    n_subarrays = 0;
    n_kernel_binary = 0;
    n_kernel_nibble = 0;
    n_kernel_generic = 0;
    n_kernel_early_exit = 0;
  }

let total_energy t =
  t.e_search +. t.e_write +. t.e_merge +. t.e_select +. t.e_overhead

let add_into ~into s =
  into.e_search <- into.e_search +. s.e_search;
  into.e_write <- into.e_write +. s.e_write;
  into.e_merge <- into.e_merge +. s.e_merge;
  into.e_select <- into.e_select +. s.e_select;
  into.e_overhead <- into.e_overhead +. s.e_overhead;
  into.n_search_ops <- into.n_search_ops + s.n_search_ops;
  into.n_query_cycles <- into.n_query_cycles + s.n_query_cycles;
  into.n_write_ops <- into.n_write_ops + s.n_write_ops;
  into.n_banks <- into.n_banks + s.n_banks;
  into.n_mats <- into.n_mats + s.n_mats;
  into.n_arrays <- into.n_arrays + s.n_arrays;
  into.n_subarrays <- into.n_subarrays + s.n_subarrays;
  into.n_kernel_binary <- into.n_kernel_binary + s.n_kernel_binary;
  into.n_kernel_nibble <- into.n_kernel_nibble + s.n_kernel_nibble;
  into.n_kernel_generic <- into.n_kernel_generic + s.n_kernel_generic;
  into.n_kernel_early_exit <-
    into.n_kernel_early_exit + s.n_kernel_early_exit

let reset t =
  t.e_search <- 0.;
  t.e_write <- 0.;
  t.e_merge <- 0.;
  t.e_select <- 0.;
  t.e_overhead <- 0.;
  t.n_search_ops <- 0;
  t.n_query_cycles <- 0;
  t.n_write_ops <- 0;
  t.n_banks <- 0;
  t.n_mats <- 0;
  t.n_arrays <- 0;
  t.n_subarrays <- 0;
  t.n_kernel_binary <- 0;
  t.n_kernel_nibble <- 0;
  t.n_kernel_generic <- 0;
  t.n_kernel_early_exit <- 0

let to_string t =
  Printf.sprintf
    "energy: search=%.3e write=%.3e merge=%.3e select=%.3e overhead=%.3e \
     (total %.3e J); ops: %d searches (%d query cycles), %d writes; \
     allocated: %d banks, %d mats, %d arrays, %d subarrays; \
     kernels: %d binary, %d nibble, %d generic (%d early exits)"
    t.e_search t.e_write t.e_merge t.e_select t.e_overhead (total_energy t)
    t.n_search_ops t.n_query_cycles t.n_write_ops t.n_banks t.n_mats
    t.n_arrays t.n_subarrays t.n_kernel_binary t.n_kernel_nibble
    t.n_kernel_generic t.n_kernel_early_exit
